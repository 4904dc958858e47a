"""Reproducible instance generation."""

import contextlib
import hashlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapsolve import generate_instance
from knapsolve.cli import format_instance, main
from knapsolve.gen import DISTRIBUTIONS, SplitMix64

U, C, H = DISTRIBUTIONS


def test_splitmix64_reference_stream():
    # published test vector for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_randint_bounds():
    rng = SplitMix64(42)
    draws = [rng.randint(3, 7) for _ in range(200)]
    assert set(draws) == {3, 4, 5, 6, 7}
    with pytest.raises(ValueError):
        rng.randint(5, 4)


def test_generation_is_deterministic():
    a = generate_instance(50, 20, 30, 0.5, seed=7)
    b = generate_instance(50, 20, 30, 0.5, seed=7)
    assert a == b
    c = generate_instance(50, 20, 30, 0.5, seed=8)
    assert a != c


def test_shapes_and_ranges_for_every_distribution():
    for dist in DISTRIBUTIONS:
        items, capacity = generate_instance(40, 12, 25, 0.5, seed=3, dist=dist)
        assert len(items) == 40
        assert all(1 <= w <= 12 for w, _ in items)
        assert all(1 <= p <= 25 for _, p in items)
        total = sum(w for w, _ in items)
        assert capacity == int(0.5 * total)


def test_capacity_fraction_edges():
    items, cap0 = generate_instance(10, 8, 9, 0.0, seed=5)
    assert cap0 == 0
    items, cap1 = generate_instance(10, 8, 9, 1.0, seed=5)
    assert cap1 == sum(w for w, _ in items)


def test_hard_distribution_concentrates_weights():
    items, _ = generate_instance(200, 64, 100, 0.5, seed=11, dist="hard-equal-weights")
    weights = {w for w, _ in items}
    assert min(weights) >= 64 - 4  # band just below w_max
    assert len(weights) <= 5


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate_instance(0, 5, 5, 0.5, seed=1)
    with pytest.raises(ValueError):
        generate_instance(5, 0, 5, 0.5, seed=1)
    with pytest.raises(ValueError):
        generate_instance(5, 5, 0, 0.5, seed=1)
    with pytest.raises(ValueError):
        generate_instance(5, 5, 5, 1.5, seed=1)
    with pytest.raises(ValueError):
        generate_instance(5, 5, 5, -0.1, seed=1)
    with pytest.raises(ValueError):
        generate_instance(5, 5, 5, 0.5, seed=1, dist="bogus")
    for bad in (8.5, 8.0, True, "8", None):
        with pytest.raises(ValueError, match="must be an integer"):
            generate_instance(4, bad, 9, 0.5, 1)
        with pytest.raises(ValueError, match="must be an integer"):
            generate_instance(4, 8, bad, 0.5, 1)
        with pytest.raises(ValueError, match="must be an integer"):
            generate_instance(4, 8, 9, 0.5, bad)
    for bad in (4.0, True, False, "4"):
        with pytest.raises(ValueError, match="must be an integer"):
            generate_instance(bad, 8, 9, 0.5, 1)
    for bad in ("0.5", None, True, False, 1j):
        with pytest.raises(ValueError, match="t_frac must be a real number"):
            generate_instance(4, 8, 9, bad, 1)


# SHA-256 of format_instance(*generate_instance(*args)), recorded before the
# stream was drawn as arrays.  Instance files are part of the contract:
# never regenerate these digests to make the test pass.
GOLDEN = [
    ((1, 1, 1, 0.5, 1, U), "36c8931548e64ae7fb01863755a1d54006e4ca566076cc5b228c3c3f67ff793e"),
    ((50, 20, 30, 0.5, 7, U), "17f73450c5e95c3ff8e4e98908f02d7997f1b956292ae7d15f5ce6fbb98b2fe7"),
    ((200, 64, 10**6, 0.3, 11, U), "ddf7963f59a0befba560607bf18e5f245eb427efbd1ee2d8500e6dbb92c0f9f1"),
    ((100, 64, 2**62, 0.5, 12, U), "b5abf6e2373c005743bdec54b1f70484a030515ecadc174a0648a43deac42ab1"),
    ((100, 64, 2**64, 1.0, 13, U), "b5eca29600ea5805090e83550b3ea0f36886ba98174994cec8d956919beb34f7"),
    ((100, 64, 2**64 + 5, 0.5, 14, U), "73d7e9779b297c09db7a00302b64281580bd0eb895f0dede83754d85b838c193"),
    ((40, 100, 50, 0.0, -3, U), "9ad62fe73aa8a07be39e956b58af7abfb15bb93e4715d9129baa7bcb8d47ec7d"),
    ((40, 4096, 1000, 0.5, 2**64 - 1, U), "d4f1df4f4525f7db8b7a375b046561aefea7e5e8a7b2644d65d10ea421cf3c53"),
    ((40, 4096, 99, 0.5, 2**64 + 7, U), "aa32e5842e2e60e7be610b0dc92a10af8ca95d3ab417f523a7190710364fbe30"),
    ((2**17, 64, 32, 0.5, 1, U), "d25cc6232bbb6987edb6fb72f2e4fc74301582f7b0a3af08dedda5e4f235cf8e"),
    ((2**14 + 3, 1000, 2**40, 0.5, 5, U), "d62f22d9a0daa8da76df02d44e1a0e480c30c30d1b12aeb709130a8094e11bd8"),
    ((1, 1, 1, 0.5, 1, C), "36c8931548e64ae7fb01863755a1d54006e4ca566076cc5b228c3c3f67ff793e"),
    ((50, 20, 30, 0.5, 7, C), "a0a8a5890e2aa7746031a0ecf1f0f7921625b99e7a26a5d8403384c9ab1e41ab"),
    ((200, 64, 10**6, 0.3, 11, C), "33d7277e695f8d5edf5e00868bd3882228aee7055c46883736ed5b8e5cf2bc08"),
    ((100, 64, 2**62, 0.5, 12, C), "4b5d0a64dc993902928522f7183994f2bd74b44c97f6354a61b86ad2a6a22a73"),
    ((100, 64, 2**64, 1.0, 13, C), "715bd042677e656ac05bfde39187bedbb66996157b6df5f612ad2d651a279662"),
    ((100, 64, 2**64 + 5, 0.5, 14, C), "fbbdae5b4e77db1b2cd2c93451a1749c011252cd1232bc9314ba50595ffa9ecb"),
    ((40, 100, 50, 0.0, -3, C), "b33a91475c43366a06478e4941642fb4f3ec242467809eaa70c2ae7f7019bd46"),
    ((40, 4096, 1000, 0.5, 2**64 - 1, C), "6673adcbf05a2ee17d6e0174024d1feab28bfcc080a242fe47cee7d538b3bc96"),
    ((40, 4096, 99, 0.5, 2**64 + 7, C), "bac4417315324dcd1f0869f07007c6cfe305dbc21a2462555279b4083610a498"),
    ((2**17, 64, 32, 0.5, 1, C), "e97304350e073170bf0a0bb5083118916498f10209a70050820507089561ef5e"),
    ((2**14 + 3, 1000, 2**40, 0.5, 5, C), "c9c5f2aaf32915a969331d6f53c1c030019c936996e8007e7e5505a3d532a3c5"),
    ((1, 1, 1, 0.5, 1, H), "36c8931548e64ae7fb01863755a1d54006e4ca566076cc5b228c3c3f67ff793e"),
    ((50, 20, 30, 0.5, 7, H), "d5bb66f9f1a9f639c2a66eb7c7a59701eaf81ede49d474ede402beed79a19451"),
    ((200, 64, 10**6, 0.3, 11, H), "db4a7f007b88c28cac5da414670bc7db323843d70c7025c9c0519a21300e6b4f"),
    ((100, 64, 2**62, 0.5, 12, H), "4fa3248741d5fde6f116f85cf6c5370387a639b25b9695d5581b8ef3af0a9629"),
    ((100, 64, 2**64, 1.0, 13, H), "1a46485ffa7ea20624d73b35ec0e18f859244be893c733ed5dd350686cb96887"),
    ((100, 64, 2**64 + 5, 0.5, 14, H), "c621696c7a62ff97f61cd47b8fca5f3121eba1a1104e440bfaf619616f1b1f50"),
    ((40, 100, 50, 0.0, -3, H), "d957d46b860a8f1b572a720887cf99330e759b56190be820f72068a24d041989"),
    ((40, 4096, 1000, 0.5, 2**64 - 1, H), "a82ca11482cb2f295c3143abaf561a72c15edbb1d2451d5450f9fa6eee39e2eb"),
    ((40, 4096, 99, 0.5, 2**64 + 7, H), "8d728299a18e99d1465f9670ca47212239da5678419e81898fb2a515e9583060"),
    ((2**17, 64, 32, 0.5, 1, H), "bd393d8db4a55c0a4271bfbb9267dcc6bf29c5587026ec45a3cdb035a37bb931"),
    ((2**14 + 3, 1000, 2**40, 0.5, 5, H), "1926b33b71ea0a253f213882c34bc5faec5a652e17d0172f9f27d9e0f7bf1780"),
    ((3, 2**64, 9, 0.5, 15, U), "5709e37e4463f4530d2c60e24de579bf3a7a4c7944cd6205034726734deb0435"),
    ((4, 2**70 + 3, 2**66, 0.7, 16, U), "a651159a503ddbf3300721f95afe338fbf0c2d271be93abf52b8f82e652b0913"),
    ((5, 2**63 + 1, 2**63 - 1, 0.5, 17, U), "6ef6bcd59f5ca6ceb1312b0e50de45d8108bb3cbfbc33c43bff5c05350cdac30"),
    ((3, 2**64, 9, 0.5, 15, H), "9be875e316590ee1e6badc59ada3135dcd1559933426ec0fb78d96e37e7cd196"),
    ((4, 2**70 + 3, 2**66, 0.7, 16, H), "e97f348b13d603cdd4735aba278d88904aeb61409522b61134e17416056bdc9e"),
    ((5, 2**63 + 1, 2**63 - 1, 0.5, 17, H), "8847e32fedb8cb0425d66334736dc3abd22c2516f260ca6f36ecfe2e5da0c412"),
    ((30, 2**40, 7, 0.5, 18, C), "10b7f66abc4a1fe1e0685574d7237ebf8752deefd1b9d4bbf838d3bc37c8870b"),
    ((60, 64, 2**64 - 1, 0.5, 19, U), "9d584009266f15b803dbbd95fda2f7503f3f39890e097186d89dae8fe737f710"),
    ((60, 64, 2**64 - 1, 0.5, 19, C), "e4a5ecb26adb29ce3e59339900a19b32c114abd2a0ee737aa42ec60e856be182"),
    ((60, 64, 2**64 - 1, 0.5, 19, H), "2adb437d3091f2528838af4871f7cfc7f226b9e2a9bb4afa8d5ed114e592e57b"),
    ((6, 3 * 2**62, 2**64 - 1, 0.5, 20, U), "be202a1d4f0a310e234d037038d8d3b62ebd91056a57086e5ceb476ed013b4b0"),
    ((6, 3 * 2**62, 2**64 - 1, 0.5, 20, H), "957971336572b4c728b764df2014da0ef84da3ac4beb1334bf70757cbb9b23cc"),
    ((60, 2**31, 3 * 2**31, 0.5, 21, H), "50f5b3e0f125bcf20d4e62fa5430dbd8bda35558f9275f95f6ec32bff2b0b683"),
]

# `knapsolve gen --n 200 --wmax 50 --seed 7`, the README example.
GOLDEN_CLI = "cc979f41c5e685f9a55b973fead6b62e095c16f1eb98b811bf6c51f58186501e"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args, digest", GOLDEN, ids=[repr(a) for a, _ in GOLDEN])
def test_instance_bytes_are_frozen(args, digest):
    assert _digest(format_instance(*generate_instance(*args))) == digest


def test_cli_gen_bytes_are_frozen():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", "--n", "200", "--wmax", "50", "--seed", "7"]) == 0
    assert _digest(out.getvalue()) == GOLDEN_CLI


def scalar_instance(n, w_max, p_max, t_frac, seed, dist):
    """The generator as one ``SplitMix64.randint`` call per draw."""
    rng = SplitMix64(seed)
    items = []
    if dist == U:
        for _ in range(n):
            items.append((rng.randint(1, w_max), rng.randint(1, p_max)))
    elif dist == C:
        k = max(1, math.isqrt(w_max))
        centers = [rng.randint(1, w_max) for _ in range(k)]
        spread = max(1, w_max // 64)
        for _ in range(n):
            c = centers[rng.randint(0, k - 1)]
            w = min(w_max, max(1, c + rng.randint(-spread, spread)))
            items.append((w, rng.randint(1, p_max)))
    else:
        lo = max(1, w_max - max(1, w_max // 16))
        jitter = max(1, p_max // 100)
        for _ in range(n):
            w = rng.randint(lo, w_max)
            p = max(1, w * p_max // w_max)
            items.append((w, max(1, min(p_max, p + rng.randint(0, jitter) - jitter // 2))))
    return items, int(t_frac * sum(w for w, _ in items))


@st.composite
def shapes(draw):
    dist = draw(st.sampled_from(DISTRIBUTIONS))
    magnitude = st.one_of(
        st.integers(1, 100), st.integers(1, 2**70), st.sampled_from([2**62, 2**63, 3 * 2**62, 2**64 - 1, 2**64])
    )
    # clustered draws isqrt(w_max) centers first, so its w_max stays small
    w_max = draw(st.integers(1, 2**24) if dist == C else magnitude)
    return (
        draw(st.integers(1, 64)),
        w_max,
        draw(magnitude),
        draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        draw(st.integers()),
        dist,
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(shapes())
def test_vector_stream_matches_scalar_stream(args):
    assert generate_instance(*args) == scalar_instance(*args)

"""Seeded output pinned as sha256 digests, at the sizes the benchmark runs.

Every digest was recorded before the degree draw gained its float screen and
before `Multigraph` became a tuple of edge codes, so a change that moves one
rng call, one exact decision or the edge order of the output fails here.
"""

import hashlib
import json

import pytest

from degcount import (DegreeSequenceSampler, DegreeSet, boltzmann_sample,
                      boltzmann_tune, make_rng, parse_degree_set)
from degcount.cli import main


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of json.dumps([sample_degrees(make_rng(seed)) for seed in 0..9]);
# even (200, 400) has mean degree 4, where table entries are widest
DEGREE_PINS = [
    ("even", 500, 250,
     "3df5bf183388432235f2ff0c4eae596230abb00288b83ccaad8325f23c493d3c"),
    ("2,3", 300, 375,
     "ab713e721ac1ec2b804c18e08f24d1b64ab4f0e5702f067d9d3e1d2615f10200"),
    ("even", 200, 400,
     "fd828397806bd4bc2144f8540f7b4907d8008bb56cfacd4d01a4d8d272c9a163"),
]


@pytest.mark.parametrize("degrees, n, m, digest", DEGREE_PINS,
                         ids=[f"{d}-{n}-{m}" for d, n, m, _ in DEGREE_PINS])
def test_degree_sequences(degrees, n, m, digest):
    sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
    sequences = [sampler.sample_degrees(make_rng(seed)) for seed in range(10)]
    assert sha256(json.dumps(sequences)) == digest


# sha256 of json.dumps([sample_degrees(make_rng(seed)) for seed in 0..4]),
# recorded before the sampler kept only a band of its table: one instance
# per row recurrence the band streams (min, parity, finite)
BAND_PINS = [
    ("min=2", 200, 300,
     "4dea1b2758a51a337c5c2a343514b9327e7f340ee3f67f9789d02edaae42a900"),
    ("odd", 150, 150,
     "1d39f94892c3df25a60a89d60278b3c7ea33e21b3e80e243fc6f323b8032f1f4"),
    ("0,5,7", 60, 150,
     "379db8c287ec67a169e5d445f814bca756252a954bcef31be1e4ef609ed3bccb"),
]


@pytest.mark.parametrize("degrees, n, m, digest", BAND_PINS,
                         ids=[f"{d}-{n}-{m}" for d, n, m, _ in BAND_PINS])
def test_banded_degree_sequences(degrees, n, m, digest):
    sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
    sequences = [sampler.sample_degrees(make_rng(seed)) for seed in range(5)]
    assert sha256(json.dumps(sequences)) == digest


def test_simple_graph_texts():
    # sha256 of json.dumps of the to_text() of sample_simple for seeds 0..4
    sampler = DegreeSequenceSampler(DegreeSet.min_degree(1), 40, 50)
    texts = [sampler.sample_simple(make_rng(seed))[0].to_text()
             for seed in range(5)]
    assert sha256(json.dumps(texts)) == (
        "ffa835aecb231e4e0b1c0bc9a9265b4c84972db17bd915689102e07f05968193")


# sha256 of json.dumps([[to_text(), attempts] of sample_simple for seeds
# 0..9]), recorded before the degree screen kept prefix sums per cell; a
# sampler warmed by 500 other draws must give the same graphs
SIMPLE_PINS = [
    ("even", 500, 250,
     "6d290ebe3b72bbabcaf54c9b823e5852d1a2d15a12779608c1ff35dabbb064f9"),
    ("2,3", 300, 375,
     "101fb20dc8c2e7dde79ce6492fd13a60f7dd97ba3488add4f545862311f2ae61"),
]


@pytest.mark.parametrize("warm", [0, 500], ids=["cold", "warm"])
@pytest.mark.parametrize("degrees, n, m, digest", SIMPLE_PINS,
                         ids=[f"{d}-{n}-{m}" for d, n, m, _ in SIMPLE_PINS])
def test_simple_graphs_at_scale(degrees, n, m, digest, warm):
    sampler = DegreeSequenceSampler(parse_degree_set(degrees), n, m)
    for seed in range(1000, 1000 + warm):
        sampler.sample_degrees(make_rng(seed))
    graphs = []
    for seed in range(10):
        graph, report = sampler.sample_simple(make_rng(seed))
        graphs.append([graph.to_text(), report.attempts])
    assert sha256(json.dumps(graphs)) == digest


def test_multigraph_texts():
    # sha256 of json.dumps of the to_text() of sample_multigraph for seeds
    # 0..4
    sampler = DegreeSequenceSampler(DegreeSet.even(), 300, 150)
    texts = [sampler.sample_multigraph(make_rng(seed)).to_text()
             for seed in range(5)]
    assert sha256(json.dumps(texts)) == (
        "2f6c68b3269835efb53f3f4559989b4be6f33b4006cff02fa328ed32e25a9d51")


@pytest.mark.parametrize("seed, digest", [
    (0, "f0b39c801632a1413196b22f6d9910cff6d0990ac868ec3d0072281cbeec56df"),
    (1, "f6a5e14464bd5645a3bd89815fcf6fbb9c56c93c172ee362dee2a8bae4eb9489"),
])
def test_boltzmann_text(seed, digest):
    ds = DegreeSet.min_degree(2)
    graph, _ = boltzmann_sample(ds, 8000, boltzmann_tune(ds, 3.0),
                                make_rng(seed))
    assert sha256(graph.to_text()) == digest


SAMPLE_ARGV = ["sample", "--degrees", "even", "--n", "300", "--m", "150",
               "--samples", "8", "--format", "json"]
BOLTZMANN_ARGV = ["boltzmann", "--degrees", "min=2", "--n", "20000",
                  "--mean-degree", "3", "--samples", "2"]
SAMPLE_PINS = {
    0: "72ff3eeff1e53e814cea5a14178fd48014117c0e84bf06c0573f0e4bd7b0d52d",
    1: "90ad3c26785e7c97eda32adeb9d18764303821bb456f4a3f2080d61bc7659a06",
    2: "6d7bcec8b00c16f4cff868f4d7491d694015168edf8a939ae1fa8077ebd94f6a",
}
BOLTZMANN_PINS = {
    0: "3af734e6b577ce5de45fedc37f2eac9675dcf9c8c136b7c6d577041dafef22d0",
    1: "b523d5eb5d8b8f73bb2cb36e18130260ae8e46870040bb06a703e4c3e20d04f6",
    2: "4f8f961522072becca6aea74e171a2e73920d8920f9cdc137434bc65907c89ba",
}
CLI_PINS = ([("sample-serial", SAMPLE_ARGV, s, d) for s, d in SAMPLE_PINS.items()]
            + [("sample-jobs2", SAMPLE_ARGV + ["--jobs", "2"], s, d)
               for s, d in SAMPLE_PINS.items()]
            + [("boltzmann", BOLTZMANN_ARGV, s, d)
               for s, d in BOLTZMANN_PINS.items()])


@pytest.mark.parametrize("name, argv, seed, digest", CLI_PINS,
                         ids=[f"{name}-seed{s}" for name, _, s, _ in CLI_PINS])
def test_cli_stdout(capsys, name, argv, seed, digest):
    assert main(argv + ["--seed", str(seed)]) == 0
    assert sha256(capsys.readouterr().out) == digest

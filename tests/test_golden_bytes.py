"""CLI output bytes held fixed across commits.

Each case runs CLI commands in process and hashes their exit codes and
output files with SHA-256, one digest per base seed. The digests were
recorded from the CLI as it stood before replication seeding was
batched and records were formatted from arrays. A change to seeding,
sampling or record text that moves one byte fails here; the
reproducibility tests elsewhere only compare two runs of one build.

The draws come from numpy's SeedSequence and PCG64, whose streams NEP 19
keeps stable across numpy versions.
"""

import hashlib

import pytest

from clustertess.cli import main

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

# the previous step's output file stands in for IN
IN = "<in>"

CASES = {
    "sample_poisson": [
        ["sample", "--process", "poisson", "--lambda", "20", "--window", "0,0,1,1", "--replications", "3"],
    ],
    "sample_poisson_discrete": [
        ["sample", "--process", "poisson_discrete", "--c", "0.5", "--window", "0,-2,8,2", "--replications", "2"],
    ],
    "sample_barycentre": [
        ["sample", "--process", "barycentre", "--lambda", "20", "--epsilon", "0.2", "--window", "0,-2,8,2",
         "--replications", "2"],
    ],
    "sample_lattice": [
        ["sample", "--process", "lattice", "--window", "0,-2,8,2", "--replications", "2"],
    ],
    "stats_poisson_count": [
        ["stats", "--test", "poisson-count", "--lambda", "5", "--window", "0,0,1,1", "--reps", "1000"],
    ],
    "stats_occupation": [
        ["stats", "--test", "occupation", "--c", "0.5", "--sites", "1000", "--reps", "10"],
    ],
    "chain_thinned": [
        ["chain", "--variant", "thinned", "--c", "0.05", "--range", "0", "500", "--histogram-tol", "1e-9"],
    ],
    "chain_shifted": [
        ["chain", "--variant", "shifted", "--epsilon", "0.2", "--base-lambda", "5", "--range", "0", "200",
         "--histogram-tol", "1e-9"],
    ],
    "tessellate_validate": [
        ["sample", "--process", "poisson", "--lambda", "30", "--window", "0,0,1,1", "--replications", "2"],
        ["tessellate", "--in", IN, "--property", "delone", "--radius-cap", "0.3", "--certain-only",
         "--coverage-samples", "200"],
        ["validate", "--in", IN, "--coverage-samples", "200"],
    ],
}

DIGESTS = {
    "chain_shifted": (
        "c2534805ad38a87af19473bda90f3ffe5472f3e117543fd9f5563b26836cb162",
        "c60acddbb2c9c45ab3b28689dbde06910da5918bc2aa5e46fcc04d13c93d5689",
        "39753fa95b4c64538da2357c36e4776e03d758a6d50fedfa1181e4057224653b",
        "34a487f13149f15def5b25a571908dd100056dd4e4bd3a19d1a8ec231130c039",
        "8a8671d3a2f027d62417ab241e92fbe6351952dcf2374f0c011450f8039f380b",
    ),
    "chain_thinned": (
        "07daeb5118542a2f9c37991bccbfa97c81df8efed51ab7868205f219a8d1943a",
        "9f188b64e143f0c14b5062436dc90c34027778ce21fe30db88b90dd5007975bb",
        "352c74574debba8c203d343b46dbb9e63cd808dc0561682c7677ca3e431105e2",
        "f58a8b7f2cbe56391dcf87b0a7e913bc1834069b3a574efafb8f8cd6467e06e0",
        "27e2e39710c13d584a1601a7c48f137a8fa56042d0890c891c90691cae816b0d",
    ),
    "sample_barycentre": (
        "60b7d8ba5faf1ec5adc829559b1556bea42153edb8a47a4f6fba1ab75495aa13",
        "c0f156d07bcc19e2a592da700a86cb8eade40cd2a31f7bb162e9916cd5bb1fa1",
        "141001aa75c87f7948b5f9a3eaa515b7bd6c96f3b72e2b0ab39e5a4892ac66d9",
        "25ee8059e144b5ded48b530b0bb84ac1cf55968bdf5df438a1ab1b26a944ebd8",
        "d5bd76b7e58a0e9c11438148b66db706f4d9208dafa332bd5fb3375abe94b5fa",
    ),
    "sample_lattice": (
        "49d233cc6df4808696236759dd9850dc1540ac535333de878bb94ae667e8246c",
        "49d233cc6df4808696236759dd9850dc1540ac535333de878bb94ae667e8246c",
        "49d233cc6df4808696236759dd9850dc1540ac535333de878bb94ae667e8246c",
        "49d233cc6df4808696236759dd9850dc1540ac535333de878bb94ae667e8246c",
        "49d233cc6df4808696236759dd9850dc1540ac535333de878bb94ae667e8246c",
    ),
    "sample_poisson": (
        "7c2e54c185fd5909a64385800c887f5b153d901b0b59bcce8f19b2af355af99c",
        "56c30d9c4cc0c20236c53bdc7209b84c3d0b16b29be5f275c969315443e6f22e",
        "cb4d4957e9eb402f832531b4acd9fa4f78fb908a419a7656bdb08e2ce419499d",
        "93178714ba3ca89c2305e6699210e1b80d6ca21cc40d9bf5f6610b10f78d2889",
        "738461db7c43b94fdad6ff74c13eebb131bc2558be01f0e91ce7ed2c7361b4a1",
    ),
    "sample_poisson_discrete": (
        "0f7037b2a50b77336213c5d9afd9c7ead4ad58f7594e6e423e5cf5f8139e45c3",
        "2d9ff3c91a5ff78f9baa292149e3c94434c57ab595bf3ac5f850d496e8c718c6",
        "aebd7ce186e0e0997826629e2ec9467befbb36f02b7f1fa6baac1bf8c6029d3b",
        "c11957324d3753ea4b04da30d09240336225188361fae0cb26a0fb23f81f3f3e",
        "879a9eed31e2475cef0992ebe3112d5d2aeaf80458521fb3a2f5fb54cb797015",
    ),
    "stats_occupation": (
        "b4ccb6b22a53cc0f6295a4ca3bd957e5d5a0db095b5974b6d35010dd6748bb47",
        "b994b64bfa18869894ef52b23814a36715cbc8b186a09400abeec6f90099e9da",
        "2048ad5150d8f168672abc30cbff19bb299762acd5c3ff8e18d7ba9d9bd9a79a",
        "dd58b7548a5ddf39f9ad135057551809fe7e87421a21e69762610aa764ef62a8",
        "a30bc20266d5eee172d698559785e561d888e1a1cebe41efafcb876804eccd1e",
    ),
    "stats_poisson_count": (
        "c1db68fd60ebbebb4ca00dfaf3e2537eac47987b2f2c909552e9d2ed4144c45f",
        "ad8a3729545d7131431b4f79c0f7ee72f3e52a98a8b2311a9e3f2ef2b3c4110b",
        "058d2ef37a222ef6816b79320a63ed660abf1df84b537c00f2cfa0772e3cef1e",
        "d269ded62c5b8cb83534b02c7633d3f53cba8e54ec8c46fa457956c38f605777",
        "980e95e52041b93c116e4c3d8bd3ad5c61437c1918b4f353fc6405344cf5a32e",
    ),
    "tessellate_validate": (
        "fcd7378cb19de033f0f76a5c1b00d402e024ce5d018a8c8506a208af01e257f2",
        "4388ea99aa6e799416217ac765a85477b8b8c67b80d48dd4adadba2df7c11617",
        "395e9c96409b7a9f445695f2ae893490f73d7c20d39dba3ad883a82b706a8a9e",
        "cf86015caf16fe1eda86674c850a6029f0c18b6951d9a31cbb6a449c1a94c5da",
        "32fd2f9c737b0d2f7f3c2a0617990d5a36bdcefd0a11c2e7d36791ebda98799c",
    ),
}


def case_digest(case: str, seed: int, directory) -> str:
    """SHA-256 over each step's exit code and output bytes, in order."""
    digest = hashlib.sha256()
    previous = None
    for step, argv in enumerate(CASES[case]):
        out = directory / f"{case}.{seed}.{step}"
        argv = [previous if a == IN else a for a in argv]
        code = main([*argv, "--seed", str(seed), "--out", str(out)])
        digest.update(f"exit {code}\n".encode())
        digest.update(out.read_bytes())
        previous = str(out)
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes_match_recorded_digests(case, tmp_path):
    assert tuple(case_digest(case, seed, tmp_path) for seed in SEEDS) == DIGESTS[case]

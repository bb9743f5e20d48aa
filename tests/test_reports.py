"""Byte-identity of the CLI reports.

Each case runs one subcommand in-process and pins the SHA-256 of its
standard output together with its exit code, so a refactor that changes
any byte of a report (generator-dependent fields such as `delta`,
`differentials` and `witness` included) fails here.  Each report is hashed
with its `engine_version` value read as PINNED_VERSION, so a version bump
alone changes no digest; every report must carry the package's version.
A change that must alter generator-dependent output bumps `engine_version`
and re-records the table by running this file as a script from the
repository root, and the table's diff names the reports it changed:

    PYTHONPATH=src python tests/test_reports.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import monofloer
from monofloer import cli
from monofloer.cli import main
from monofloer.data import THETA, MonopoleData, curated_instances, serialize
from test_acceptance import performance_instance

COMMANDS = (
    ("validate",),
    ("homology", "--flavor", "infinity"),
    ("homology", "--flavor", "minus"),
    ("homology", "--flavor", "plus"),
    ("homology", "--flavor", "hat"),
    ("homology", "--flavor", "noneq"),
    ("les", "main"),
    ("les", "hat"),
    ("spectral", "--pages", "3"),
    ("structure",),
    ("duality",),
    ("reverse",),
    ("verify-all",),
)
LARGE_COMMANDS = (
    ("les", "main"),
    ("les", "hat"),
    ("duality",),
    ("homology", "--flavor", "plus"),
    # with these, the generator-dependent `delta` and `differentials`
    # fields are pinned beyond the curated datasets
    ("structure",),
    ("spectral", "--pages", "3"),
)
# the widest window the contract admits: every degree outside the band
# must repeat the band-edge verdicts, groups and witnesses
WIDE = "--window=-1000:1000"
WIDE_COMMANDS = (
    ("tail-chain", ("les", "main", WIDE)),
    ("tail-chain", ("les", "hat", WIDE)),
    ("performance-50", ("verify-all", WIDE)),
    ("performance-50", ("duality", WIDE)),
)
# windows of one or two degrees: tails and the hat sequence's vanishing
# are read past the window's edges, not from degrees the window lacks, and
# a reduced group that is nonzero further out has no tail there
NARROW_COMMANDS = (
    ("tail-chain", ("homology", "--flavor", "plus", "--window=7:7")),
    ("tail-chain", ("homology", "--flavor", "minus", "--window=-6:-6")),
    ("tail-chain", ("verify-all", "--window=0:0")),
    ("empty", ("les", "hat", "--window=1:2")),
    ("theta-coupled-pair", ("les", "main", "--window=-11:-11")),
)


def _clash() -> MonopoleData:
    # structure and verify-all fail on it, with exit code 1
    return MonopoleData.build(
        "torsion-theta-clash", [("a", 1), ("b", 0)],
        n=[("a", "b", 2), ("a", THETA, 1)])


def _cases() -> list[tuple[str, MonopoleData, tuple[str, ...]]]:
    cases = [(f"{data.name}:{' '.join(command)}", data, command)
             for data in curated_instances() for command in COMMANDS]
    cases += [(f"torsion-theta-clash:{command}", _clash(), (command,))
              for command in ("structure", "verify-all")]
    # the criterion-10 instance: large lattices with torsion diagonals
    large = performance_instance()
    cases += [(f"{large.name}:{' '.join(command)}", large, command)
              for command in LARGE_COMMANDS]
    named = {data.name: data for data in (*curated_instances(), large)}
    cases += [(f"{name}:{' '.join(command)}", named[name], command)
              for name, command in (*WIDE_COMMANDS, *NARROW_COMMANDS)]
    return cases


# the engine_version the table was first recorded under
PINNED_VERSION = "0.1.0"
VERSION_FIELD = '"engine_version": "{}"'


def _digest(data: MonopoleData, command: tuple[str, ...], directory) -> str:
    """The SHA-256 of the exit code and the report, with the report's
    engine_version, which must be the package's, read as PINNED_VERSION."""
    path = directory / f"{data.name}.json"
    path.write_bytes(serialize(data))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([*command, str(path)])
    report = out.getvalue()
    if report:
        assert json.loads(report)["engine_version"] == monofloer.__version__
        report = report.replace(VERSION_FIELD.format(monofloer.__version__),
                                VERSION_FIELD.format(PINNED_VERSION), 1)
    return hashlib.sha256(f"{code}\n{report}".encode()).hexdigest()


EXPECTED = {
    "empty:validate":
        "980d02fd477bc2536c826aa6b18c3ef623a2db7365f48ce6ae7e05247262cc6e",
    "empty:homology --flavor infinity":
        "50fb7cb001400529a2e55572c19354056132e080c4adf78650384e1afcd60ca8",
    "empty:homology --flavor minus":
        "97c2188b11224fe8d478e5264a61235a345f582da905b2f867a3922c35d50940",
    "empty:homology --flavor plus":
        "c701a35e86b39f866f4d0161baea2f7a7d6c4c6f2c83108564359df02b3a08b5",
    "empty:homology --flavor hat":
        "f5f80f3bf09ef29a45e9dbec15b541793ef786d433e882fb18b9203d1561235b",
    "empty:homology --flavor noneq":
        "39ccfcb6e76f607d01b91fbc1df98dade89a5c42e8055d79de00e6b93dddb82a",
    "empty:les main":
        "5cff959e3d77036b4acac4bfd14faff0302d58247fa2e4dd78887f0e1d57a966",
    "empty:les hat":
        "b5ee5aa27167ecd851917773569bcce7f2bb19fbb4b0b7ea4cb40c96405cb993",
    "empty:spectral --pages 3":
        "1e1caa244579a50679de7c9f9ca77569560508a1a06972dd86fa7dd9c4d1ef4b",
    "empty:structure":
        "b9db27211db343fc4809e0c80838f9bed8f03eba83f1f40d4b242184023df9b9",
    "empty:duality":
        "79ec704863fdc111c35bf3946d55e7b36c1abba51e76087e937910d7c0bdbe4f",
    "empty:reverse":
        "35e1e3007966c093c9c5643a7603518028c2687f0f967d2bf55aabbeef51d0ed",
    "empty:verify-all":
        "3f291c5eb29e27e8b54e87f1833e0ed99b5a18581ef1a1bc69e6222056bd3a09",
    "theta-coupled-pair:validate":
        "b7067c278a3647746db390c2053935b6a22c43f3b0f53673e0066c1a9a84f060",
    "theta-coupled-pair:homology --flavor infinity":
        "228ee5aff3b97ef47edc95483e8434d743372e3b138da4bc78ffd5fe5689e640",
    "theta-coupled-pair:homology --flavor minus":
        "a8d68eaef282019ecd8dc5a22011b53708eadd941f0bb82eb9b841efc63a07fa",
    "theta-coupled-pair:homology --flavor plus":
        "50ceeec66b338ed034411950f9e62045d3ca6ae762b7684abea28833c200fa56",
    "theta-coupled-pair:homology --flavor hat":
        "5fd473e2f92056ab4b1b8d74785415e60d57ca7c4296cb55cafef2d3ad8520e6",
    "theta-coupled-pair:homology --flavor noneq":
        "3ce404364f86988a5fa9e8742c5d19e5a2215197e9094e538c79e5f25d8aec9f",
    "theta-coupled-pair:les main":
        "bcd54a1ec009402919c967cd72e6283e07ff0416c1f4812af807c9837511cb0e",
    "theta-coupled-pair:les hat":
        "31dbc7440d9a8bb521124466d43cc98798f18e8dc92c7be61261e0a13267789b",
    "theta-coupled-pair:spectral --pages 3":
        "9bae795668a2ecdd8e60fd1cd32e7c7a5e64c261128a87ebba9d0137b1da315a",
    "theta-coupled-pair:structure":
        "494b815762fec004503c875daaca3645e8acf69803a2eb3da1ef6a3def771d0f",
    "theta-coupled-pair:duality":
        "e12d26962f63b1d92a071765a7fa0c0daa1fe4ee1a517856eadb69264175a285",
    "theta-coupled-pair:reverse":
        "9fa9f47d9df47f94d8ca02746eed5fca8d2aff81a309f436c31f4f7e20863cda",
    "theta-coupled-pair:verify-all":
        "6cf59c8cff4679ec48dd5473b23d77dc8c615f53624b9d09365e120ecf04732d",
    "two-step:validate":
        "ea26659bfba88bdea97de078ffc23311afdb47f39130c67b38b067d1d5031bfe",
    "two-step:homology --flavor infinity":
        "070b92d5b9be519726bbe02457f932f185e3e7e5417cf004a6b7609768baf3c6",
    "two-step:homology --flavor minus":
        "f2f9dff7c77f9819c82b35644ab962458400cb09cd27f1cb91aeaa1761d3287b",
    "two-step:homology --flavor plus":
        "15be238719c59fa86687e1349b861a6d0afe17620e0c414927aa10ed0d304199",
    "two-step:homology --flavor hat":
        "a058df5571ecdd0b10918f95badcf349675fe518c57e15d58876acb259aafd05",
    "two-step:homology --flavor noneq":
        "54905abd6beaacd66e96a4bb6eb4c98641808648655e3976401a0eec9dd17731",
    "two-step:les main":
        "e80f6054131268be08e4be2f956139de0c2d81c1424873670a4348feb1ee81c8",
    "two-step:les hat":
        "c468cb50afe8c0908cbad997e234542a6c5db3cfbbbda7061b284f018dc6f1ac",
    "two-step:spectral --pages 3":
        "f8f9246793fcdda81a1e4b8a40d8cfefffc2517ca28fe00bea7e2296e7bff1ef",
    "two-step:structure":
        "1cd08374a5358b12d8214c624bb1e93da0fb7506404c9b682b6e864764aaac57",
    "two-step:duality":
        "4fa9efd8429ca1cd265e82d85df126c8902e4b3f74de36ff14dafa66fffea684",
    "two-step:reverse":
        "289e5383e69c1bccde9937596bdd0cbd057013aa1a4ae6bde5cc2fc82fec9554",
    "two-step:verify-all":
        "ea1866e804f00308b24aa386c50c77439e56d0c0c58aaf1a333909240e2eb447",
    "euler-pair:validate":
        "62a5d0b80e0b25f3949bd149a426b3fdc1078b49d739a702e166b21ca589e994",
    "euler-pair:homology --flavor infinity":
        "82974985834c564bfbd01457c3fe752393cfacc9d341ff8fd31c5e03d5518b35",
    "euler-pair:homology --flavor minus":
        "98e8d04ff125e2fa7ab8d03b454fc63d4545eea7f2cd14d53c97d358f21ee3c7",
    "euler-pair:homology --flavor plus":
        "d913d77926daf916e27f2f1648a20962a05dec16acf5a6c7befbe18dced0f514",
    "euler-pair:homology --flavor hat":
        "dacc92f16887abfad8f1d2bfdb7ce01a46a56fa136b4ffaf5db602e45523c191",
    "euler-pair:homology --flavor noneq":
        "3d8fc61616a7268929af7a472058ebf6b039fad81d94e94464cd48ab5b0a3ee1",
    "euler-pair:les main":
        "3bf61bf40da6c12bd163c0e99a5424c23e8329be986e275e3fcb8c525d3409ee",
    "euler-pair:les hat":
        "dacb30812a4ae5e47f82a3968cfb3c998ac2b7a6b0070092a186735744f06a2c",
    "euler-pair:spectral --pages 3":
        "d057ba0ae21fdf8e184283a1a32d69d4a6fae82700ddf5b7858e9271fd028c6b",
    "euler-pair:structure":
        "d842c814d863be00e66e1a1f0422607d9d28fabd93415218273d1df7f411e2d3",
    "euler-pair:duality":
        "ec9dc537feb483fda077fff037bab97c9314d205ab1f934eb9397dbbda42cf87",
    "euler-pair:reverse":
        "923585d00de8354500ce824c9c142c072c6643262ad5105c04d05eca3818164e",
    "euler-pair:verify-all":
        "3e33113130f612640bc94ec4f69a105f36c1114f1f28228a4eb688f13b2e8259",
    "gap-three-chain:validate":
        "dcc665c0297552abdc6e65c8b0e26b85af95db527112034caa25ebf5b55cfb51",
    "gap-three-chain:homology --flavor infinity":
        "6709d5fb3f6326047b9a73fa518e16b406fc55165079a446201cf80ad841e258",
    "gap-three-chain:homology --flavor minus":
        "94f93007fc70e4de71d261230824d098661636a33d8c932172f1a07284dbbc0b",
    "gap-three-chain:homology --flavor plus":
        "a7f3867db7e1c50ec8ae6cafe846202f9d8fffc957dfa4c3ff9cef7114ced483",
    "gap-three-chain:homology --flavor hat":
        "fa773cd0dd9f5117cb85ace7fa27bcf60e426c79f7daa0a9bcf7037562752439",
    "gap-three-chain:homology --flavor noneq":
        "eef2d499a4f414e6a0b88b07c7a26fc26fe1928e60de01e15f0cbaf7d642f4a1",
    "gap-three-chain:les main":
        "2eac59f5be1c636a8fd0f8f9a8b56ce977a1932fb7a44d1a7636f1a39ec3a0c4",
    "gap-three-chain:les hat":
        "e3fd509553972dd1571262841a99ce3f59d1930742f2d3a5df3938b692d95f18",
    "gap-three-chain:spectral --pages 3":
        "8f9b78b66fa35cf9864d67b57991a1049da7636b52f1674ec86e909648c78f7c",
    "gap-three-chain:structure":
        "eef3050d062167e07a9ef1e9f29e9d9dfb0888ed2a113cf407a205a0cc92cb58",
    "gap-three-chain:duality":
        "8d285a6d4d7d05109b49b086ef0dd65c36c1b5ecd54aed81a110f75afbc95f4c",
    "gap-three-chain:reverse":
        "003d4aad61a30c297f6e0a688dc16b1413bea8893aa77dcd622ec2b4976685ae",
    "gap-three-chain:verify-all":
        "7e09fba9212afdb442614fadd252072dcd12ccb82747e9ee35d1b2a36c7d820d",
    "tail-chain:validate":
        "229e7b4a59b5b74a6aee8679bdb1a8c0c2556430e7714f153a45c0dd87d365da",
    "tail-chain:homology --flavor infinity":
        "92d3bcccf611893a2e0fdfcb0d6c03824cfecea7745aca735b423de76908f7b7",
    "tail-chain:homology --flavor minus":
        "ad524138f4c066e27961a0d8eb61d1adeed763533e0ce7bcee1b5f1379dd37e4",
    "tail-chain:homology --flavor plus":
        "e2b4f46727948fbc2f7491b876e1d23d410bef808c617287c22bec3d6a2795df",
    "tail-chain:homology --flavor hat":
        "6fd30e7e34e9a595888f754a69c2b8c16f41b30df0b92ad144e2a1cbb27153e2",
    "tail-chain:homology --flavor noneq":
        "bee845334974af2c49cca18a05602422a32b3af912895a7ca8fada7d1fddba57",
    "tail-chain:les main":
        "ce2a11210c25eec580e811206590a2f0c0938ffc6453661fe666b494a9b214a2",
    "tail-chain:les hat":
        "7efb6d3b382875af069263d03de84e358b415d1f1fe9c2e8a2d7457c44c4dabb",
    "tail-chain:spectral --pages 3":
        "a7dbf2178ad827f06256b42a2cc378c1d15a99bbab79b973ceb5ff06456cdee6",
    "tail-chain:structure":
        "51f134c584eaccf55e5a8a79e606b984c911e7cac28a7877a7d975b2fa28bec9",
    "tail-chain:duality":
        "f7033ac6bfd3b09bbd8cfda64f33ccdc736f50215649f40e3e7b12e205c8d64a",
    "tail-chain:reverse":
        "1a4b13cad659260a59cfd4861cc16164a0849a7d7b2d117bcf97922d3e5a154e",
    "tail-chain:verify-all":
        "cd943105f5847f244e8a6904481bd4d48b2dc8f8690f8dcb9c366cfa5dfa4dc3",
    "torsion-theta-clash:structure":
        "69b36b53aa62337704dfec0f19beaf9c4573e1f9b964b6f11647348818462e2f",
    "torsion-theta-clash:verify-all":
        "49d1d1bf0aeb867d4bf0f8e1810a1b2f5fb6b02753caa55535d92defc2354c1a",
    "performance-50:les main":
        "6222a5a3bca0f5d15eadb75fa54913ff0ed2e35d07b64ce93bd1885b68d0aebb",
    "performance-50:les hat":
        "3002b29a740f02674354d3db81254797a97fb7807cd28357a77f76640ca57f2b",
    "performance-50:duality":
        "aefb43a4aeeb44ae187c1ffeb1c474756c88e47e018acd8c8bc429c65787b3ae",
    "performance-50:homology --flavor plus":
        "9ac2dc4db7ab6ce9648dccdd279ef482fd1cf2e3e96038f5bbde485abb180f46",
    "performance-50:structure":
        "828f352a89107dec3cc58162bf4058b4d9cd736c61426a96f5d387054f706eea",
    "performance-50:spectral --pages 3":
        "1ca7d66fc8facf65492c8517178f7775936330140831d5c927664573a65471fb",
    "tail-chain:les main --window=-1000:1000":
        "4435fefe794db748e3599c807b1342b382dab76c92391e0596309b05594ac0a8",
    "tail-chain:les hat --window=-1000:1000":
        "e44ff9449f194faeb4980f8a6c6c17d1a52acf52f0bb7f5dad3b25a05c24e602",
    "performance-50:verify-all --window=-1000:1000":
        "42d0d7e05ebf2e2d6e5470b933dd855c4d844fda06d3d6f125764b1b027d965d",
    "performance-50:duality --window=-1000:1000":
        "dac63f80088ee01511540b5ce628adb9e67d80d405906988e348d37b933f204f",
    "tail-chain:homology --flavor plus --window=7:7":
        "12b929537284ce38f50a9716cd95d310760e26c7e7364fc8a5f29c9b42549758",
    "tail-chain:homology --flavor minus --window=-6:-6":
        "ec27b18207c52e250814c204761712f53f353c6e53c94e76950c5e28efd88b4c",
    "tail-chain:verify-all --window=0:0":
        "d6e6b4a69c22d9ca4b7c5ded5990809ce58e1096b4b629bb2fa98d027794ac49",
    "empty:les hat --window=1:2":
        "73a94fc00134b7f7c2749e4c1af1940f7198becaf181cedad0ad8de4d0f13a97",
    "theta-coupled-pair:les main --window=-11:-11":
        "4803a9839813c8ae02fc535790d460476a7012442d55f373cd2d3f43ae2aa6c9",
}


CASES = _cases()


@pytest.mark.parametrize("key,data,command", CASES,
                         ids=[key for key, _, _ in CASES])
def test_report_is_byte_identical(key, data, command, tmp_path):
    assert _digest(data, command, tmp_path) == EXPECTED[key]


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # the parser is built on first use; a usage error leaves it fit for
    # the calls after it
    cli._build_parser.cache_clear()
    data = next(d for d in curated_instances() if d.name == "tail-chain")
    path = tmp_path / "tail-chain.json"
    path.write_bytes(serialize(data))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["homology", "--flavor", "bogus", str(path)])
    assert (code, out.getvalue()) == (2, "")
    parser = cli._build_parser()
    for command in (("homology", "--flavor", "plus"), ("verify-all",)):
        key = f"tail-chain:{' '.join(command)}"
        assert _digest(data, command, tmp_path) == EXPECTED[key]
    assert cli._build_parser() is parser


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for key, data, command in CASES:
            digest = _digest(data, command, pathlib.Path(scratch))
            sys.stdout.write(f'    "{key}":\n        "{digest}",\n')

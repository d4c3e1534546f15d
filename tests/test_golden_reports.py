"""Byte-level goldens of the CLI's reports and bench table.

Each case is one `genlabel run` or `genlabel bench` invocation on generated
graphs only, so no file path enters its output.  It is pinned to its exit
code and the sha256 of the bytes it writes: every row of the built-in bench
suite for seeds 0 and 1 in both formats, the default bench table, and every
tag on the degenerate graphs path:n=0, path:n=1 and clique:n=2, two
cover-free pipeline runs on path:n=400 that take reduction steps, one
network decomposition of twelve multi-phase executions, Cole-Vishkin runs
with 0 to 3 bit-reduction rounds and on a 32-tree forest, and two Kuhn runs,
one of them with an isolated vertex.  A change
that is meant to keep reports byte-identical must leave every case passing.

Run this file as a script to print the cases with the digests of the code
that is importable now.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from genlabel import runtime
from genlabel.cli import main

# (command, exit code, sha256 of the written report or table)
CASES = [
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 0 --format json",
     0, "40638fb744f44ef1a5d2be0c4c58ffe1298ddc4c603521df49f7e76206741138"),
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 0 --format csv",
     0, "e599a630c0e8530a9ca393cb42a147f1c61c76028fb965fdc4071ffee5f50058"),
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 1 --format json",
     0, "d1555a520aa8ac50a1d0382a7a658a890b5832127e8c0031ae66403e445f9645"),
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 1 --format csv",
     0, "c35661d98bb3b5931fcac052dbd41174a985d2dc4cc51a3efcebe2ad807f88bd"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "0845ae911bb70142e0c26521f1f1dca58973c9d056d6ca9c77510d62aa619c31"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "e079c0434bf84df9b41617dc8323a61e9343cf4d8a96e40222ec93b5f6fb1922"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "4c7e3fd8c2637b35450d4742d011bf2f2170768cf58634b2a23ea2e13d2ce205"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "ed569067e0a7308a7e58f2781445bfbdf85c879f576226492adb1821fcbd21a3"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "bb75c406dd7d3f7317e04458955f56bd1c0fcb3f4814191922af8c69333059d1"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "ba6bb5183841e0c74c38847837ec28f205359e437c6a317459b1bcb780d1ccef"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "b4cea79315c787c4e71893b7d4c932e33cca46970335b7cad04020acd00c3688"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "350365fa5c0a3b2f7152c0be4ad4543630e2d2f98b5ff379fc8f49da5116aafb"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 0 --format json --param p=2",
     0, "bbc007b443fc33a145a9beb60a154a5edf4cc2549b4f20912947627c7446605b"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 0 --format csv --param p=2",
     0, "00800d093ff36671419a10e59a6429d363cc43540dd8792d384d13630fe2cbf0"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 1 --format json --param p=2",
     0, "24e1690942c8bf8796bcfffb7f0657270c4e15236e0b4c3c8057ad51ad34d5aa"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 1 --format csv --param p=2",
     0, "65a7bd8cef5589642069364d9e2b9a133a28d71bcca6347d3e9f0da674d7fe5f"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 0 --format json --param a=2",
     0, "6f134cbc1d5d1dde716b7909082d281ced9666731984a18f87eb22a908ba66f6"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 0 --format csv --param a=2",
     0, "cb76e09936c492e2d4da8467ac8eaddcd8767533955cd80c5acf00310202ce1d"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 1 --format json --param a=2",
     0, "56018f8edecbf962f949e4d108253ff41a6068205d61f62f108bb587f0adb083"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 1 --format csv --param a=2",
     0, "b1b4b3692ea5d90d59244940f9a3f8e127bcd9f999d98f70696a0dab97979040"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 0 --format json --param c=2",
     0, "496b1a1c5048651638204189f5fa275342c7f39f11d06beb9c74bf390e274534"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 0 --format csv --param c=2",
     0, "2f80cfddafea0dce3f86b6995844528eacba13be6c6cc625d6de012fe8e9272d"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 1 --format json --param c=2",
     0, "8bed84a8156692603eb866eb923fd2c7cef18047cd4db08f0d484fcab96008f2"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 1 --format csv --param c=2",
     0, "005d24944e0b33790cfbc0ae71ab08f5f1b1c520f2524aaeb22688392ae815e5"),
    # twelve executions of one to three phases each: messages_total follows the
    # sweep's (radius, id) candidate order
    ("run --algo network-decomposition --gen gnp:n=1024,p=0.00586 --seed 7 --param c=12",
     0, "5aea76b6181226cbaa930f37ea3e6b093cad9a91b98ec3a7e10814fe1dd27e79"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "4aed7666d848fb34c3dbae6484c46abc6225b22dc224aa62a663b8223bb76483"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "3860b176ac986fd0420a96197173c7a6013eaab9965aaf11f471ee43697f12c1"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "4175144664a903247dff85855fd81fc0d58b94a4f58a23a63b1af8bcb9721e6f"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "00333736195a715bf87656883db68c62c0d88a3ab02f8e9b3e6f0684cce5c5f7"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 0 --format json --param a=2",
     0, "0121f60228aed378a2f2559676ebde488a4e2ae4199d866582487b6a1caa11e0"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 0 --format csv --param a=2",
     0, "507fa655a049cf4dd62989fb4f2b79017e7b06f9dd3a8680d20177d384ef2ace"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 1 --format json --param a=2",
     0, "be8ad97ddcb378a24a5adae907cf046de62a09313f2d543e844f2a13e81bc69a"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 1 --format csv --param a=2",
     0, "75140705e094ff69527cefab12143e5420b33cdb77fca52456af75a49776537b"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 0 --format json",
     0, "6e8029802c7052a34e100796e36c8b8e00ea070a039532e867b71403c08b28ee"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 0 --format csv",
     0, "48e45d5c742ebb767689d792b17bc43797878b82578ee3c258886b527ce0d201"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 1 --format json",
     0, "d22b345081f1c898cff75b119b734ea926c6fc92eae36ba5220429e3f1dc52fa"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 1 --format csv",
     0, "8ed0122cb5e63705d07d0a20876e045a98180b0ce35ff7ed10d8d9379566db00"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 0 --format json",
     0, "1832b2fea8325eb3bb955598b214da99095a0422a84db74775179ebd3e0179ce"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 0 --format csv",
     0, "233031511e0be0c336a9c8b6732a8695c27eed64d9d61c4d194cb244a3fe42ee"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 1 --format json",
     0, "70fc48505c3e96c2cb5b471a0a2b2ba4058181adfcf46cef8684e3c44eab94e3"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 1 --format csv",
     0, "4b9e219a5b1e0276e395a4b6a62d5b959efbd3774cdcd3657a4e3ccb65458288"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 0 --format json --param i=2",
     0, "a25f625796140413b45f46704bd709bc8800bf9e3c8ce2c81194e16cc6354c19"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 0 --format csv --param i=2",
     0, "1aeb9a111b04cdad7db10ac92d6643d172e3751184c674ee52d3c31484c8c270"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 1 --format json --param i=2",
     0, "3cc2e0c0d3f512d34d679fcd4a7fafd562e9f198488478ad00b1ee0ed7146864"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 1 --format csv --param i=2",
     0, "e4ed0de23051e527517639b43d10161b1c07871ad394cebfe94edc3e060022d5"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "22689a73f6a9fd67caad906e5ad46e9d3426b76a79c7d7fd726526dc65ee9be1"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "3e60467c53555a14cba84700f261b758d299c679b64340f2543250e9e775a6ec"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "187e7041fb1b1992d28597bac893fb79ec76e09be0b271ab53c63d01b844021d"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "008497ac730cb36844b2a1070e1551a07afa1500cda402fa5c3854d71f52c1e3"),
    ("bench",
     0, "700bedc32ac027a44e0959dbdfb7dd73e1d63b9e41b6f36ccc92cc28cf03d6f5"),
    ("run --algo cv3-expansion --gen path:n=0 --seed 0",
     0, "6c2a0c0b820dc3ee7e700ff288bb58d86383079fa299ed04ec7af79c1be2f9a5"),
    ("run --algo random-coloring --gen path:n=0 --seed 0",
     0, "c24bd4387b0b83be53fe06cd00839b0ca83c685db677ec8528bbb1a8feffa70f"),
    ("run --algo delta2-coloring --gen path:n=0 --seed 0",
     0, "5a6f5b3969820c074e37b4a145c7002b8153f98b1d03095aef217c6d41985e72"),
    ("run --algo defective-coloring --gen path:n=0 --seed 0 --param p=1",
     0, "b074b4390791fa0caae3f3c1af5d626dfbebdfc744d46d3edaccece218d824be"),
    ("run --algo arboricity-coloring --gen path:n=0 --seed 0 --param a=2",
     0, "8a05ba8610ad1d4e899c1cfc321d8f5090e0f67da2cf0c95ca6766ad2ab86bb6"),
    ("run --algo network-decomposition --gen path:n=0 --seed 0",
     0, "6ed8bcfbe3617baaafc0373af32e4bf59570456fe43da9f944a73fd8399132be"),
    ("run --algo forest-id --gen path:n=0 --seed 0",
     0, "536e4c6370c1f3ca2838e666af3e2293d5b898a9718cde71e6da49252f02e817"),
    ("run --algo forest-hpartition --gen path:n=0 --seed 0 --param a=2",
     0, "fa471defa2a8a6d0b4d465551e36ba2e4e769847f568add033d9633f682523df"),
    ("run --algo edge-random --gen path:n=0 --seed 0",
     0, "f8251dbd6b1616e2b407724efc824ebc588ada523e16b905613cea9ec8cf5337"),
    ("run --algo edge-delta2 --gen path:n=0 --seed 0",
     0, "b8bfd5eaa457cfd9db09a421aa64b849f484ce0cbb2a806e6b9509da2b9f1f2d"),
    ("run --algo kuhn-edge --gen path:n=0 --seed 0 --param i=1",
     0, "c966a617ed271148c853c9e73cc5da3557160d3ae400adb2fb95ca978943fef9"),
    ("run --algo dominating-edge --gen path:n=0 --seed 0",
     0, "113728118c615bfa06a703cd6d8e924e5caefca2fde80e3109658f82a51458c2"),
    ("run --algo cv3-expansion --gen path:n=1 --seed 0",
     0, "7110e9ffc94a2508b193ce648cafac0a10b0d5dbb7598f07a1e8cbf4264651b3"),
    ("run --algo random-coloring --gen path:n=1 --seed 0",
     0, "8f316ac15ec6d179a7e73ccf840928a84b2f0b77251b7f3de2f83110732c6059"),
    ("run --algo delta2-coloring --gen path:n=1 --seed 0",
     0, "36a2267e1ffd5d27d4104bf1fdf06d9bbdb585e94bcb25eb3f9d20be735306e9"),
    ("run --algo defective-coloring --gen path:n=1 --seed 0 --param p=1",
     0, "f905c275aaad6d3d012fda3133d30ea64404593724ba6fd6b665ced9142fbd9e"),
    ("run --algo arboricity-coloring --gen path:n=1 --seed 0 --param a=2",
     0, "b831ec134ee124f388db0a99b7af781798247b7c6f1df8decfd26d23fed166e0"),
    ("run --algo network-decomposition --gen path:n=1 --seed 0",
     0, "e5987504dd882b472219990e89c82a8c938ba03ea8951be15b1433d98007f818"),
    ("run --algo forest-id --gen path:n=1 --seed 0",
     0, "bc4a2b694f93c64a5759223ceb446ab076ab1e54b5ad9d33e935e8655875be49"),
    ("run --algo forest-hpartition --gen path:n=1 --seed 0 --param a=2",
     0, "c6e3b9cbbe647fa253a6d1e832a3f32a31715dbc382a57cb56aa160500fe1a0b"),
    ("run --algo edge-random --gen path:n=1 --seed 0",
     0, "0c2f4aed5121bda2ebbb0a1e02dcd10a917aca2c2625d0eef450cb891a32500b"),
    ("run --algo edge-delta2 --gen path:n=1 --seed 0",
     0, "11da8f5bf093ae86813963cdadc344455c15c41727478a94cf0dd6b8b9d5e56a"),
    ("run --algo kuhn-edge --gen path:n=1 --seed 0 --param i=1",
     0, "988b88474cccd0e09341b74a364b9b1d0da6c0c1cb57028f4b49512ef95e703a"),
    ("run --algo dominating-edge --gen path:n=1 --seed 0",
     0, "85aed90d71e82238c7d2474208020409adbeeb05ec806f34f1d99e560b6fe962"),
    ("run --algo cv3-expansion --gen clique:n=2 --seed 0",
     0, "4376b8912678616fa40fb0c9d004d9199683a53d587854b5b974b5fee5f067a4"),
    ("run --algo random-coloring --gen clique:n=2 --seed 0",
     0, "4a8346a850b6e06e8dafab9e4fe554f71ca11f5e0184e1e96f43744cc4cb7c5d"),
    ("run --algo delta2-coloring --gen clique:n=2 --seed 0",
     0, "9aa354215ae67e6f6ce9aef28ad0d221924ccd32f315ccb25884d6b4ee076391"),
    ("run --algo defective-coloring --gen clique:n=2 --seed 0 --param p=1",
     0, "2898fbe941d479ad375d45921b5e7c7694ab3f295fc3004c7ef15c012ca35ac5"),
    ("run --algo arboricity-coloring --gen clique:n=2 --seed 0 --param a=2",
     0, "338995d14563ab2b2918d7fcdbb0930a701bcd6f5bf48af1521e9381f506ae54"),
    ("run --algo network-decomposition --gen clique:n=2 --seed 0",
     0, "788dfa4d62c7e96e0ad18af07136688d3c85eb5f4d3c10e6d9ffa6ae07be3b35"),
    ("run --algo forest-id --gen clique:n=2 --seed 0",
     0, "c6f0f10ec6a6c35c831ac9a72019352904f147277e2d955a06bec4ef93216994"),
    ("run --algo forest-hpartition --gen clique:n=2 --seed 0 --param a=2",
     0, "7ccf901e7b8486e58c7e112fa51dce9752abf2809ba2fa3d1fdb8a1d5360b732"),
    ("run --algo edge-random --gen clique:n=2 --seed 0",
     0, "0ba417471480afdbd2a012c67ccf7ca01f230c55156266611e8c943cdd84cba2"),
    ("run --algo edge-delta2 --gen clique:n=2 --seed 0",
     0, "25cd95ce32d448c5df8ca64df3a312785cbc7e1b83728972a50e6d3db3c76fea"),
    ("run --algo kuhn-edge --gen clique:n=2 --seed 0 --param i=1",
     0, "b0d6ede09eca28054a31c5e1de9dc12f01bc07d5073b2f5624807dd49f28f809"),
    ("run --algo dominating-edge --gen clique:n=2 --seed 0",
     0, "63938933e449c05a07c1a9bf51206507f80419a460c144f5720a15e08630bdc2"),
    # reduction steps [[2, 11]], then the residual round
    ("run --algo delta2-coloring --gen path:n=400 --seed 0 --format json",
     0, "af040fe0ac1c5dd4fa72b56022489f726540fb437e31f5340096f20920da9b21"),
    # reduction steps [[2, 11], [2, 7]], then the residual round with rho = 1
    ("run --algo defective-coloring --gen path:n=400 --seed 0 --format json --param p=1",
     0, "323ffddab6d61041e1e71c08f328a2126b196f844aed2d8e89c25a901625973b"),
    # Cole-Vishkin with t = 0, 1, 2 and 3 bit-reduction rounds
    ("run --algo cv3-expansion --gen path:n=5 --seed 0",
     0, "6929840ba551daa01a6ef370d250540d74ba7a39b7e5040bf392aad8f13ef497"),
    ("run --algo cv3-expansion --gen path:n=7 --seed 0",
     0, "dec15a27be8d5f19c03c64f3ed279f40e448c93f68903c339ebd85a1c9a10d5d"),
    ("run --algo cv3-expansion --gen random-tree:n=16 --seed 0",
     0, "c997c4108bac60837f5ed3df32c6d27a8c5cc2f0d5a7d4d861d612561ea0cc91"),
    ("run --algo cv3-expansion --gen path:n=64 --seed 0",
     0, "5d36d1d882290bc7bc6f4ecd458ed04f1db856bcf33b64a51a28c0644a4a9f2e"),
    # a forest of 32 components, so 32 roots
    ("run --algo cv3-expansion --gen forest-union:n=64,a=1 --seed 0",
     0, "e53f26703406c475d832bbf96b400de98807d1e2c93313f8b8d5faea7c7a09fc"),
    ("run --algo kuhn-edge --gen clique:n=9 --seed 0 --param i=3",
     0, "40d0d506234bf962260911531e7ac198e7df2fa64e3b1ad713fd6277bbbcf9bc"),
    # one vertex of this graph is isolated
    ("run --algo kuhn-edge --gen gnp:n=64,p=0.05 --seed 0 --param i=2",
     0, "1aee716110b2a33c2187201b307da0515f82b82fdaa2ff6ed41c885f3f41b93e"),
]


def _run(command: str, out: Path) -> tuple[int, str]:
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split() + ["--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("command,code,digest", CASES, ids=[c[0] for c in CASES])
def test_report_digest(command, code, digest, tmp_path):
    assert _run(command, tmp_path / "out") == (code, digest)


def test_no_case_reaches_the_round_engine(monkeypatch, tmp_path):
    """Every case keeps its exit code and digest with the round engine made to
    raise: every alias of ``run_sync`` reaches ``runtime._run_rounds``, so no
    production path steps a node program."""
    def refuse(*args, **kwargs):
        raise AssertionError("the round engine ran")
    monkeypatch.setattr(runtime, "_run_rounds", refuse)
    for i, (command, code, digest) in enumerate(CASES):
        assert _run(command, tmp_path / str(i)) == (code, digest), command


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for i, (command, _, _) in enumerate(CASES):
            code, digest = _run(command, Path(work) / str(i))
            print(f'    ("{command}",\n     {code}, "{digest}"),')

"""Byte-level goldens of the CLI's reports and bench table.

Each case is one `genlabel run` or `genlabel bench` invocation on generated
graphs only, so no file path enters its output.  It is pinned to its exit
code and the sha256 of the bytes it writes: every row of the built-in bench
suite for seeds 0 and 1 in both formats, the default bench table, and every
tag on the degenerate graphs path:n=0, path:n=1 and clique:n=2.  A change
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

from genlabel.cli import main

# (command, exit code, sha256 of the written report or table)
CASES = [
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 0 --format json",
     0, "b77373af51c734ef0deffe6bd9da291fcd307430c5927340d1f1fef9088dff88"),
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 0 --format csv",
     0, "e599a630c0e8530a9ca393cb42a147f1c61c76028fb965fdc4071ffee5f50058"),
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 1 --format json",
     0, "1cf7f604e897736202f9005c62ad5151c88ebd40f9d8356d8e258befe32e1994"),
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 1 --format csv",
     0, "c35661d98bb3b5931fcac052dbd41174a985d2dc4cc51a3efcebe2ad807f88bd"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "1c615d475fc79e9162174a2dc18aa9f8af3464a2ec668ccc7f94c19c0dbb6805"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "e079c0434bf84df9b41617dc8323a61e9343cf4d8a96e40222ec93b5f6fb1922"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "a7e75ef70fc597b169b761fba0de7f2060bc268118257fccc0ec3a35f7a9579a"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "ed569067e0a7308a7e58f2781445bfbdf85c879f576226492adb1821fcbd21a3"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "3d49bd88019f13e8b5c92927c2c6e16fa71afd690e49a841eff203b4a78605a5"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "ba6bb5183841e0c74c38847837ec28f205359e437c6a317459b1bcb780d1ccef"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "2bbd66f3e1425258b63c11b440fc8a9cbeee0b8ab124ad77cded3fc3638417c8"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "350365fa5c0a3b2f7152c0be4ad4543630e2d2f98b5ff379fc8f49da5116aafb"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 0 --format json --param p=2",
     0, "2e6bc6189d5ce02b5bb8c1d648a930afeb70e0037e0db7f092df64571702d372"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 0 --format csv --param p=2",
     0, "00800d093ff36671419a10e59a6429d363cc43540dd8792d384d13630fe2cbf0"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 1 --format json --param p=2",
     0, "c6c2057278eeab963d104d96b722834416cd57acb682d992ecfa8197c2451b3d"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 1 --format csv --param p=2",
     0, "65a7bd8cef5589642069364d9e2b9a133a28d71bcca6347d3e9f0da674d7fe5f"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 0 --format json --param a=2",
     0, "4eb47fb60279c6988795da1b7887a47fc93be9668865324b332b54aef74aa7bf"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 0 --format csv --param a=2",
     0, "cb76e09936c492e2d4da8467ac8eaddcd8767533955cd80c5acf00310202ce1d"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 1 --format json --param a=2",
     0, "9b7263e2361c70b1034a57084572d439205c208452695d10e95ba4e739a38d2f"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 1 --format csv --param a=2",
     0, "b1b4b3692ea5d90d59244940f9a3f8e127bcd9f999d98f70696a0dab97979040"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 0 --format json --param c=2",
     0, "73d45d48c453c3649695c63d1595f0ba11f4d10a116b19fe770e6d029fdc6bc6"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 0 --format csv --param c=2",
     0, "2f80cfddafea0dce3f86b6995844528eacba13be6c6cc625d6de012fe8e9272d"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 1 --format json --param c=2",
     0, "4a2f977788dacc42af04445801af634e376cb097ae1dad3220c6751842adc99f"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 1 --format csv --param c=2",
     0, "005d24944e0b33790cfbc0ae71ab08f5f1b1c520f2524aaeb22688392ae815e5"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "0dfc368fa14ca6c6d819d7deafc2bd28be0dc100cc53b73e57f01fc919bd72ec"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "3860b176ac986fd0420a96197173c7a6013eaab9965aaf11f471ee43697f12c1"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "b9f38ffb29d280286a45a1ec5fe319fc26d2097101d3f9ac00ea9e27947a4c0f"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "00333736195a715bf87656883db68c62c0d88a3ab02f8e9b3e6f0684cce5c5f7"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 0 --format json --param a=2",
     0, "6696768d636a32bdb4b6ad0644d673d96883c72097b51fbbb6c7f5f107239c41"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 0 --format csv --param a=2",
     0, "507fa655a049cf4dd62989fb4f2b79017e7b06f9dd3a8680d20177d384ef2ace"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 1 --format json --param a=2",
     0, "9a108de38689778f5e7575359e1c8fbc3f91fa2e593cc96601679705c4cf2b11"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 1 --format csv --param a=2",
     0, "75140705e094ff69527cefab12143e5420b33cdb77fca52456af75a49776537b"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 0 --format json",
     0, "4cc9c5b0a45c693573cfeb2683e180b3ad573c7023180f3f8b39404be59d1b8e"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 0 --format csv",
     0, "48e45d5c742ebb767689d792b17bc43797878b82578ee3c258886b527ce0d201"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 1 --format json",
     0, "3301dd92be01af4fac23ba736a79de2ff38a9d42e96d5c9ad0ece444612912d2"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 1 --format csv",
     0, "8ed0122cb5e63705d07d0a20876e045a98180b0ce35ff7ed10d8d9379566db00"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 0 --format json",
     0, "77ab1f0690fc5f97e0bd8cba468655bb304849e17b1a5a11211a3718a1203d49"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 0 --format csv",
     0, "233031511e0be0c336a9c8b6732a8695c27eed64d9d61c4d194cb244a3fe42ee"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 1 --format json",
     0, "f6fccd37602bf9ff9dbab03a8e158b6f010650bbe9078d1103ef0a26f72893f0"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 1 --format csv",
     0, "4b9e219a5b1e0276e395a4b6a62d5b959efbd3774cdcd3657a4e3ccb65458288"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 0 --format json --param i=2",
     0, "95bbcf08b22bc1f10b004845b9d9d296ecd894363ccd18cd49584d12e8e8245a"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 0 --format csv --param i=2",
     0, "1aeb9a111b04cdad7db10ac92d6643d172e3751184c674ee52d3c31484c8c270"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 1 --format json --param i=2",
     0, "b616a93d802004eb030a6c785bd60cf7954a818d24539d1025511462d6cdd7a3"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 1 --format csv --param i=2",
     0, "e4ed0de23051e527517639b43d10161b1c07871ad394cebfe94edc3e060022d5"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "0666a3c888b9b1634a58b6974926b79e5a51214f86ede30a3b85068e987067e0"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "3e60467c53555a14cba84700f261b758d299c679b64340f2543250e9e775a6ec"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "d5215dbd761c16dee7ca91b948655f3c887192faf3dedcf69afb0464b1c8efd1"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "008497ac730cb36844b2a1070e1551a07afa1500cda402fa5c3854d71f52c1e3"),
    ("bench",
     0, "074cd580d29a918e068e1e81f5d2b1c2311fbc737260e76eb8c51eaf844073c4"),
    ("run --algo cv3-expansion --gen path:n=0 --seed 0",
     0, "64d581435044c4204110a9302c66e8b30dc152b4b770d37b45f0522c36be7e4f"),
    ("run --algo random-coloring --gen path:n=0 --seed 0",
     0, "7c5ff214cd01b932baeca760248bd8707b855d92f1923b5f5f1af40771f007e3"),
    ("run --algo delta2-coloring --gen path:n=0 --seed 0",
     0, "20cb2c628bd86699c23dd3879da8803175164f5345323adf094f7220e91bf162"),
    ("run --algo defective-coloring --gen path:n=0 --seed 0 --param p=1",
     0, "98c74d445d369f4f006ff844b1ae4888c08f91281998ed8580516c46a14a7d3c"),
    ("run --algo arboricity-coloring --gen path:n=0 --seed 0 --param a=2",
     0, "7610507394b1b4a8300127e3f961657df3ff46129ceffd6468bd7effbf40cd3e"),
    ("run --algo network-decomposition --gen path:n=0 --seed 0",
     0, "d1035c34fb6473ceace9920d7baa3760bb1542399b6861fb478fb1ef4f89ed1f"),
    ("run --algo forest-id --gen path:n=0 --seed 0",
     0, "fba80dbd8a6ab168c3098a7a6d3a3138e9a626440b367d07c46e88f1709b47ac"),
    ("run --algo forest-hpartition --gen path:n=0 --seed 0 --param a=2",
     0, "71ade98971ba74c59558c8eadd9656166a9df25d7d8f5ecaa461af0446cb6a91"),
    ("run --algo edge-random --gen path:n=0 --seed 0",
     0, "d614136caebec2948682a858adc043e2ce0f9bda022f42171bb994d437f08400"),
    ("run --algo edge-delta2 --gen path:n=0 --seed 0",
     0, "fe6043543d4e79b40cbca285616ab0d21b17c61f19e2bae0330637bf3415c665"),
    ("run --algo kuhn-edge --gen path:n=0 --seed 0 --param i=1",
     0, "bea7bab7c907f1ed0eca6ae1ef9221fe3b965711d30d28f2dfc4914c743b8a36"),
    ("run --algo dominating-edge --gen path:n=0 --seed 0",
     0, "421c214a052618b3ffa9bcfa2322b1f7dd37b6cf41c55d8f11778c9e9c86ddaf"),
    ("run --algo cv3-expansion --gen path:n=1 --seed 0",
     0, "8d356aaf3d3a95c6cc8c4a23642f508218e70aac553327455a865ac4006c6610"),
    ("run --algo random-coloring --gen path:n=1 --seed 0",
     0, "adf27b03a71da7725269b0d1b2f2271b16a8ae7511d9ac830c00f5fdc43f29c5"),
    ("run --algo delta2-coloring --gen path:n=1 --seed 0",
     0, "8aa3ddb02587f8d874760ec032f7d713948eb09ce7fc55e370fd3eb3453b7075"),
    ("run --algo defective-coloring --gen path:n=1 --seed 0 --param p=1",
     0, "2abece6e83ccbba3307d01fdf2decc9a9fb2408ff6a9480b519e00d47a3d4637"),
    ("run --algo arboricity-coloring --gen path:n=1 --seed 0 --param a=2",
     0, "4f80c245877acbe107190a9074fac48e05cbba898d0233770d7caa3f905e1ecc"),
    ("run --algo network-decomposition --gen path:n=1 --seed 0",
     0, "a9976fd54e4d0417a0318138325f0f8a0a63fc2b661c607b00b6e259684535c9"),
    ("run --algo forest-id --gen path:n=1 --seed 0",
     0, "84a6a145183921f9285df044bd50b892745f31b211ee22699c4bfbf02c7ccb4a"),
    ("run --algo forest-hpartition --gen path:n=1 --seed 0 --param a=2",
     0, "2ebb4ae6e9ef2051726d572ede0e44536c79b6df583800ea1c571fc3555afd9b"),
    ("run --algo edge-random --gen path:n=1 --seed 0",
     0, "22b441bc5b864d15123e6aa14091ed577b8fe3925dc44e5214ff936ceb954ff9"),
    ("run --algo edge-delta2 --gen path:n=1 --seed 0",
     0, "2d5baa75596eca0413eb4bac791ce6b9fbb609422ccb6166da4fe773ac7b0388"),
    ("run --algo kuhn-edge --gen path:n=1 --seed 0 --param i=1",
     0, "f1f37c4da557bb2b674c188636f46c3b447240828609bf029f3d2d16c7697e4c"),
    ("run --algo dominating-edge --gen path:n=1 --seed 0",
     0, "8c695185332ebe2e82f3e35fb82da7e34eef064bbd7a63981b3cd9cfb579bfe0"),
    ("run --algo cv3-expansion --gen clique:n=2 --seed 0",
     0, "443f975b59fb38ffc0ff2133badf91e2557efce1110dca3604e7507f3f006a64"),
    ("run --algo random-coloring --gen clique:n=2 --seed 0",
     0, "95e7172af3bfa671b369f14402e0b60880124b68909a3afbf00d4a9e8cb0f9c4"),
    ("run --algo delta2-coloring --gen clique:n=2 --seed 0",
     0, "b9c893c078bb39c781818075bf5f0b00ad77fece4755d4eb647296b87b9a3bef"),
    ("run --algo defective-coloring --gen clique:n=2 --seed 0 --param p=1",
     0, "b7100d5ab3f6e3775113043e5f1838c1007d0f85f8813e6944210f17ed4f04bc"),
    ("run --algo arboricity-coloring --gen clique:n=2 --seed 0 --param a=2",
     0, "3b8b3ed0e9c977136c1232b929a3c50507aa521f4c8d101379d53a5356c5772c"),
    ("run --algo network-decomposition --gen clique:n=2 --seed 0",
     0, "e4bde4185246ee2357e2851f882448cf1df91d148b30eadcad115cd1310cc909"),
    ("run --algo forest-id --gen clique:n=2 --seed 0",
     0, "3a5f266f9f3af394aaf4d545181d8ec4cbb8b4bca25f054b8e5bc270341fc714"),
    ("run --algo forest-hpartition --gen clique:n=2 --seed 0 --param a=2",
     0, "262c4b1f10d76b8e11d286b850ab66651eedd55024f0dc9ed8edb4d01bb8f4c5"),
    ("run --algo edge-random --gen clique:n=2 --seed 0",
     0, "6bf5855d7a1085642bdb09539b35ac93ee39423c49add4700373469c7068009d"),
    ("run --algo edge-delta2 --gen clique:n=2 --seed 0",
     0, "4eb9f84518d9a88d9f619778fbf3883d0d508d3c001b947a8ed556a5413a1401"),
    ("run --algo kuhn-edge --gen clique:n=2 --seed 0 --param i=1",
     0, "aef3b2f350ce1755f4795fa030df01b480b6149704adf26169dbcb8e52343d10"),
    ("run --algo dominating-edge --gen clique:n=2 --seed 0",
     0, "017bfb2dd02a171a5d480c5891f8f4ae24f43328e5ea52bf4776c1c471a54f58"),
]


def _run(command: str, out: Path) -> tuple[int, str]:
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split() + ["--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("command,code,digest", CASES, ids=[c[0] for c in CASES])
def test_report_digest(command, code, digest, tmp_path):
    assert _run(command, tmp_path / "out") == (code, digest)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for i, (command, _, _) in enumerate(CASES):
            code, digest = _run(command, Path(work) / str(i))
            print(f'    ("{command}",\n     {code}, "{digest}"),')

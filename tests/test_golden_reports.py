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
     0, "d2cda0e27844fd1033f2d55bd051435aa909af74fb6bf493852c2fb7b2f63181"),
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 0 --format csv",
     0, "e599a630c0e8530a9ca393cb42a147f1c61c76028fb965fdc4071ffee5f50058"),
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 1 --format json",
     0, "ac3bbe5d5384dc103b35215a32cd9c77909aefb4b91c514af23784f762bdb252"),
    ("run --algo cv3-expansion --gen random-tree:n=512,max_deg=8 --seed 1 --format csv",
     0, "c35661d98bb3b5931fcac052dbd41174a985d2dc4cc51a3efcebe2ad807f88bd"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "d3cee45c544353a6f97d16ced610a70ba04ec3ed5a3d788a6c1dd51ff8c1586c"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "e079c0434bf84df9b41617dc8323a61e9343cf4d8a96e40222ec93b5f6fb1922"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "7e09cd5b0255f1e9192798fc61c18f5e82e9d1e72c01735f6c11a04cb76999b8"),
    ("run --algo random-coloring --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "ed569067e0a7308a7e58f2781445bfbdf85c879f576226492adb1821fcbd21a3"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "468195d4176caf6214c6c81b3aba22eefa7f5f7e8b33c483ab8c333c6098a352"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "ba6bb5183841e0c74c38847837ec28f205359e437c6a317459b1bcb780d1ccef"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "d19449fd274fc72947214ace2e9c38b6d4dc95708c03b1d117a157a51f014fb7"),
    ("run --algo delta2-coloring --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "350365fa5c0a3b2f7152c0be4ad4543630e2d2f98b5ff379fc8f49da5116aafb"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 0 --format json --param p=2",
     0, "38c5dc597e58dc5f78983218df0b8d94658c063324f17a81ea0526a310b1589d"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 0 --format csv --param p=2",
     0, "00800d093ff36671419a10e59a6429d363cc43540dd8792d384d13630fe2cbf0"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 1 --format json --param p=2",
     0, "c55ea3c15910a4a502867d98e9ce34448576a5d3aa833bccc8f2691a47d7ee4f"),
    ("run --algo defective-coloring --gen gnp:n=256,p=0.04 --seed 1 --format csv --param p=2",
     0, "65a7bd8cef5589642069364d9e2b9a133a28d71bcca6347d3e9f0da674d7fe5f"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 0 --format json --param a=2",
     0, "f1655fe5f123a9d7042034034e0a1195e1621ec2199aeca52ba5253decdc30f1"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 0 --format csv --param a=2",
     0, "cb76e09936c492e2d4da8467ac8eaddcd8767533955cd80c5acf00310202ce1d"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 1 --format json --param a=2",
     0, "9907f9e8b80f166df4616a6e8e663667e4fe19729c0a76a84f76ea7691ea59f6"),
    ("run --algo arboricity-coloring --gen forest-union:n=256,a=2 --seed 1 --format csv --param a=2",
     0, "b1b4b3692ea5d90d59244940f9a3f8e127bcd9f999d98f70696a0dab97979040"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 0 --format json --param c=2",
     0, "5cf25c5719e3de5417eafe0086fcacc88ca2b5d2f1d59b5c5f71da40ff4ffa80"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 0 --format csv --param c=2",
     0, "2f80cfddafea0dce3f86b6995844528eacba13be6c6cc625d6de012fe8e9272d"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 1 --format json --param c=2",
     0, "415e4ff6b3b6c65c649f15585bd8bd02c6ed4590c9fe0520266517760f4404c2"),
    ("run --algo network-decomposition --gen gnp:n=256,p=0.023 --seed 1 --format csv --param c=2",
     0, "005d24944e0b33790cfbc0ae71ab08f5f1b1c520f2524aaeb22688392ae815e5"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "fe41156d124bc06198aade19c0b2724bdbfb8365caf83720fa6b7961119c2962"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "3860b176ac986fd0420a96197173c7a6013eaab9965aaf11f471ee43697f12c1"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "573cb3a8d62ed9bc0d3885aa72e31a491d5010e2a021cbf8ff6c01e41f253d26"),
    ("run --algo forest-id --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "00333736195a715bf87656883db68c62c0d88a3ab02f8e9b3e6f0684cce5c5f7"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 0 --format json --param a=2",
     0, "0da69ea326c844c22fea073668da754da13de9da4bb3f1bb73d9ac1a8d2c170d"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 0 --format csv --param a=2",
     0, "507fa655a049cf4dd62989fb4f2b79017e7b06f9dd3a8680d20177d384ef2ace"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 1 --format json --param a=2",
     0, "ed7967d8efba0a95f32801f4bcc33951b2079a600a4612f63543c963cf4fbade"),
    ("run --algo forest-hpartition --gen forest-union:n=256,a=2 --seed 1 --format csv --param a=2",
     0, "75140705e094ff69527cefab12143e5420b33cdb77fca52456af75a49776537b"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 0 --format json",
     0, "c3a0223a161723ff0b88bec1f9cf32558c24507bc832afc7397e644d82d83a15"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 0 --format csv",
     0, "48e45d5c742ebb767689d792b17bc43797878b82578ee3c258886b527ce0d201"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 1 --format json",
     0, "b6d0839d2af257662d90c45ce8336398d3b8bdd2eb4304bd937b46a03a711f0f"),
    ("run --algo edge-random --gen gnp:n=128,p=0.04 --seed 1 --format csv",
     0, "8ed0122cb5e63705d07d0a20876e045a98180b0ce35ff7ed10d8d9379566db00"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 0 --format json",
     0, "cd9440a73717bc3f3ec1200fb30829c46ad0ac2a0c5699d52a7721d42f5bd385"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 0 --format csv",
     0, "233031511e0be0c336a9c8b6732a8695c27eed64d9d61c4d194cb244a3fe42ee"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 1 --format json",
     0, "a9c7b6ad3a0d32afdd2ae72cbc16dee05a439843f19b1fc252b511b392aa1935"),
    ("run --algo edge-delta2 --gen gnp:n=128,p=0.04 --seed 1 --format csv",
     0, "4b9e219a5b1e0276e395a4b6a62d5b959efbd3774cdcd3657a4e3ccb65458288"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 0 --format json --param i=2",
     0, "0580d7b8934597211d9eb41f4778b8cb2651971da508169d1721d50ac5fe312c"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 0 --format csv --param i=2",
     0, "1aeb9a111b04cdad7db10ac92d6643d172e3751184c674ee52d3c31484c8c270"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 1 --format json --param i=2",
     0, "c82d319935bc1c00d8a50c16f93dccb592bbc82c6311fab20fe11bcc312755b6"),
    ("run --algo kuhn-edge --gen gnp:n=256,p=0.04 --seed 1 --format csv --param i=2",
     0, "e4ed0de23051e527517639b43d10161b1c07871ad394cebfe94edc3e060022d5"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 0 --format json",
     0, "aa266a60d5f132a7ba0d4e99ab80e73ecb9eb6774157e4a7c08ed2d78922245c"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 0 --format csv",
     0, "3e60467c53555a14cba84700f261b758d299c679b64340f2543250e9e775a6ec"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 1 --format json",
     0, "2dc37ee406b229d3ec4802405d92a7bca3195ad5bd076124b0366d633ce56de4"),
    ("run --algo dominating-edge --gen gnp:n=256,p=0.02 --seed 1 --format csv",
     0, "008497ac730cb36844b2a1070e1551a07afa1500cda402fa5c3854d71f52c1e3"),
    ("bench",
     0, "074cd580d29a918e068e1e81f5d2b1c2311fbc737260e76eb8c51eaf844073c4"),
    ("run --algo cv3-expansion --gen path:n=0 --seed 0",
     0, "56fb09afd72a54d475062e42797119cd19177ad97a08707f710d22b14f443892"),
    ("run --algo random-coloring --gen path:n=0 --seed 0",
     0, "90a35ea5196ac84c74cf6e616d9d58ea29ddb17f5446f47a398165ae0a41b5cb"),
    ("run --algo delta2-coloring --gen path:n=0 --seed 0",
     0, "133658b019a05791b48fe32edaa9d8135ed91ed831e44b37bc657ad404d15764"),
    ("run --algo defective-coloring --gen path:n=0 --seed 0 --param p=1",
     0, "25adcbcfa137cb392f2f544f9b61cd1027a4bfda890501212051dc674cdedfbb"),
    ("run --algo arboricity-coloring --gen path:n=0 --seed 0 --param a=2",
     0, "d481a62b2f9c1d40b9cef57714e810278b1c9e697be1864b9b7862007695ebca"),
    ("run --algo network-decomposition --gen path:n=0 --seed 0",
     0, "193bdbedadbadf7a9cb4e1e50d43a3812b2dfcc8d8f42d9d956d637f2ddd31e9"),
    ("run --algo forest-id --gen path:n=0 --seed 0",
     0, "aa8194ffbabdbf6be7ffccbc8b71e0c0b8d406e8319e03b6a85d635935d7c6c5"),
    ("run --algo forest-hpartition --gen path:n=0 --seed 0 --param a=2",
     0, "7077ca2e91188c76e2751fe3969a8ca03f2126a720b42443e82d3e69539fd8ad"),
    ("run --algo edge-random --gen path:n=0 --seed 0",
     0, "8e5ba0e7dd9bfdb949908e668271903c89cc9e6ea7886472d1afb60168700c25"),
    ("run --algo edge-delta2 --gen path:n=0 --seed 0",
     0, "1db75615fa9cd42f34997f5b3a89a01c8d8ee8f5125dd967bd2f9cf54f7f3f15"),
    ("run --algo kuhn-edge --gen path:n=0 --seed 0 --param i=1",
     0, "6c2e4728b17841e36f532d4a0279fa87dfd7763e35f2c30908dcb69201e81019"),
    ("run --algo dominating-edge --gen path:n=0 --seed 0",
     0, "cca9b232313434fdea69cc8d1ab45867249df9e1f05bc3a7ca0be23416b3913d"),
    ("run --algo cv3-expansion --gen path:n=1 --seed 0",
     0, "d3c872e63b9cf01a0e8ec494f8fe6854529e64967afc37c8b529c92a175831cc"),
    ("run --algo random-coloring --gen path:n=1 --seed 0",
     0, "9c4099c034c45d2ab52ce2a36f98de939f57ea88704994c28a002df42cea4884"),
    ("run --algo delta2-coloring --gen path:n=1 --seed 0",
     0, "b5196b20959a69cd0b64dca123d9499bedfc1af57f2cb06b86cf94751311c094"),
    ("run --algo defective-coloring --gen path:n=1 --seed 0 --param p=1",
     0, "650e95a962e367e3a45dac461fd03da823c6a9cc92cf771dcf8f6e17313d312e"),
    ("run --algo arboricity-coloring --gen path:n=1 --seed 0 --param a=2",
     0, "e411478eb7d19c32e451814c606405b6f7addfa12ae12fc47f978fec77af02fa"),
    ("run --algo network-decomposition --gen path:n=1 --seed 0",
     0, "ad53928958db0f672eb4caa72fe7b62aaece6d3c8c6d8696096aa538f3855ad2"),
    ("run --algo forest-id --gen path:n=1 --seed 0",
     0, "5e974759fdd40f00fd08c596566b8542f83767f6b545f3e209518ea01cf8c67a"),
    ("run --algo forest-hpartition --gen path:n=1 --seed 0 --param a=2",
     0, "c44c7fa04aa7fcb98ab586896ddf10993d32ab2885273863392ca5db74b714ea"),
    ("run --algo edge-random --gen path:n=1 --seed 0",
     0, "8d9b61d692ea6204d842f1f26ac7ade79242adc3ec914ef56b706f4cf643a21d"),
    ("run --algo edge-delta2 --gen path:n=1 --seed 0",
     0, "4c881e8ddb1b221df570116d28e23960be07a2256b91b72a558bf6f8b364b15a"),
    ("run --algo kuhn-edge --gen path:n=1 --seed 0 --param i=1",
     0, "dd8e3239740324c8b8ef8972eea75493267b930a09d148382f47162a6bc91a5c"),
    ("run --algo dominating-edge --gen path:n=1 --seed 0",
     0, "b1a6447309ae36fb0eaa3e6fc3da1325b0cf785c098a8557410087cea577e9e1"),
    ("run --algo cv3-expansion --gen clique:n=2 --seed 0",
     0, "affec9d3dacb3e04be3b2e668ff4eb3a54eda350ba1a4b3b7f7c7e881d6f0883"),
    ("run --algo random-coloring --gen clique:n=2 --seed 0",
     0, "eb7c73c52985f964b9c54481a4a5c9cbe1ebda7b8d78efe4f4a2da58fd653bdb"),
    ("run --algo delta2-coloring --gen clique:n=2 --seed 0",
     0, "495dd55d3e9504f5387eaf6586459d04e8b8d1b84a59cbc172234f185f7bcf9c"),
    ("run --algo defective-coloring --gen clique:n=2 --seed 0 --param p=1",
     0, "6d55e3d5711865fb849f9cf34efd207a5da00c978a95349afc8da5751518f377"),
    ("run --algo arboricity-coloring --gen clique:n=2 --seed 0 --param a=2",
     0, "0eb271b4b0315a7db152459b88c227b219028464cd69bf2900814c9f582a0a03"),
    ("run --algo network-decomposition --gen clique:n=2 --seed 0",
     0, "b14164ac4e87e528d1c41ab48ea13ed7d69b21834b7cd924416c5942c07402cc"),
    ("run --algo forest-id --gen clique:n=2 --seed 0",
     0, "8f43926071cbcaca7c8801a97f4cf24071f9ac5212f4fc870a9af0b817c9089e"),
    ("run --algo forest-hpartition --gen clique:n=2 --seed 0 --param a=2",
     0, "00c8e398efe3e33098852626770f8bb24b0b808bf37d54ec8e2d9aeb657b9b62"),
    ("run --algo edge-random --gen clique:n=2 --seed 0",
     0, "ae95a4104a4a323a443e2c64398c70367125aa4779491e7699c8c6e4453d9b67"),
    ("run --algo edge-delta2 --gen clique:n=2 --seed 0",
     0, "3cca957cf01d0b2da5f8fe8faa0b982fc5947f758312acc520c51e78f963b8da"),
    ("run --algo kuhn-edge --gen clique:n=2 --seed 0 --param i=1",
     0, "ecbb9ddac2c9a903a969fe3c4c32a62fa08539e106b435c3b6fff68e96adac02"),
    ("run --algo dominating-edge --gen clique:n=2 --seed 0",
     0, "411739f201712df216ef9b689a48a30df5ecab1c104135dc9c7d2a8175c6a76a"),
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

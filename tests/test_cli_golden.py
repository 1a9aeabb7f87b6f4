"""Golden CLI outputs: sha256 of stdout and of every written file, per command.

The hashes pin the exact bytes of 25 commands: the README tour (``compass``
with ``--basis`` and ``--fd``, ``hull``, ``ode`` with ``--traj`` and
``--surface``, ``danskin``, ``optimize``), all five demos, and a few more
points, bases and step rules.  Each command runs in a fresh working directory
so that written paths print the same.  Row 1 of each ``traj_minus_e*.csv``
holds the initial tangent of the probe direction -e_i = -1.0 * e_i, whose
zero coordinates are -0.0 and print as ``-0``: the files are the very
integrations behind the subgradient's probes.

A deliberate change of output updates the hash here and says why in the
change log.
"""

import hashlib
import os

import pytest

from compassdiff.cli import main

GOLDEN = [
    ('compass_neg_abs',
     ['compass', '--expr', '(neg (abs (var 0)))', '--at', '0,0'],
     0, '578d6a5e0f70c5ce7943577fe144453425abf5a887d87e18b3cc15b555f5831f',
     {}),
    ('compass_max_basis',
     ['compass', '--expr', '(max (var 0) (const 0))', '--at', '0,0', '--basis', '0,-1;1,0'],
     0, '1780023bacede14f831b63b1807d495c2d776326909fee2adea3958d2c919ef0',
     {}),
    ('compass_norm_fd',
     ['compass', '--expr', '(norm (var 0) (var 1))', '--at', '3,4', '--fd', '1e-5'],
     0, '9293ee41bc1f6624b53251b8f65deb92d6c4fc2859d821a2460363d4c10ba2ce',
     {}),
    ('compass_abs_fd',
     ['compass', '--expr', '(abs (var 0))', '--at', '0,0', '--fd', '0.1'],
     0, 'fffa1413cf1606939f5ac0bb22ef545d8c0d90bebb3d4c3a905a5d0dd411f3f8',
     {}),
    ('compass_skew_basis',
     ['compass', '--expr', '(max (var 0) (var 1))', '--at', '0,0', '--basis', '2,1;1,1'],
     0, 'a7851a23f3b4d995c58f2b4b018eaa38e0d1dea19359df08c7f5b0c148146a33',
     {}),
    ('compass_univariate',
     ['compass', '--expr', '(abs (var 0))', '--at', '0'],
     0, '0b5b6c3a4130c31e57450499a893f2cc9ae1527d6a6abe22f2fe397295e16726',
     {}),
    ('compass_three_vars',
     ['compass', '--expr',
      '(max (add (var 0) (var 1) (neg (var 2))) (add (var 1) (var 2) (neg (var 0))) (add (var 2) (var 0) (neg (var 1))))',
      '--at', '0,0,0'],
     0, 'b3fda3e6677638024a4e0cb07fadfa447cc795d92728e378330bff8cffae4637',
     {}),
    ('demo_example41',
     ['demo', 'example41'],
     0, '567791cfc4d9fd1bcb91f06923733b37e0a880c0aab99ed8049c97f966c3c2b9',
     {}),
    ('demo_example42',
     ['demo', 'example42'],
     0, '043cd5b87cee91a7f6b12d8005782b66219cd9ce1558fefa0d262d8d9514d387',
     {}),
    ('demo_example43',
     ['demo', 'example43'],
     0, '17c7484513b8090b7195b0c09c17c1810cf4ba1eba6a0271843c5675cc0213bd',
     {}),
    ('demo_example44',
     ['demo', 'example44'],
     0, '9845cbe1b600e00fdc0502534c8deda6c5df1f0d4012afda7fbdaab8c40dd6c7',
     {}),
    ('demo_footnote1',
     ['demo', 'footnote1'],
     0, '0ff20abfb2fc4e9be08a559ac23cffb631eeab220217f80e36d58015b6356a82',
     {}),
    ('demo_example43_out',
     ['demo', 'example43', '--json', '--out', 'results'],
     0, '0b84b847f896333268c51a57cc9ea032cfb72bbb0ff9d352031ac9d0c6ec3c0c',
     {'results/demo_example43.json':
          '0b84b847f896333268c51a57cc9ea032cfb72bbb0ff9d352031ac9d0c6ec3c0c'}),
    ('hull_midpoint',
     ['hull', '--polytope', 'triangle.json', '--midpoint'],
     0, '6d726a12e8125ec9b07618367c2dae38810b7af1e2de9b38a4131b5b5a56fb89',
     {}),
    ('hull_point',
     ['hull', '--polytope', 'triangle.json', '--point', '0.5,0.5'],
     0, 'ae28359d332278428bf562f906c654c17a02121c720387ad73ed0e887d5a4b08',
     {}),
    ('hull_3d_midpoint',
     ['hull', '--polytope', 'example43_c1.json', '--midpoint'],
     0, '7a7da0ae831b0123a2d94b72b03b77a1e3d6636570b60c903cf95b104437a493',
     {}),
    ('ode_origin',
     ['ode', '--problem', 'example46.json', '--at', '0,0'],
     0, '0444d17904b265ab51957bbb565871cfed81ac6978e1a5720310a2c8964e47ab',
     {}),
    ('ode_traj_surface_readme',
     ['ode', '--problem', 'example46.json', '--at', '0,0', '--traj', '--surface=-1:1:21', '--out',
      'results'],
     0, '08b7f1f7fece55b71c9c0dca15f37ff8f1dc23d4df1232ac409d656f8f9c3ce6',
     {'results/surface.csv':
          'c00a74d9201113f4cb04df811649629c0943ce1e489aa34a1f98f0598f002f7c',
      'results/traj_minus_e1.csv':
          'a2bdde502a76eaa423edf713deff2b242ac34882a02ba61db60d528e7193c2ec',
      'results/traj_minus_e2.csv':
          '6d550f41cf82b6d6a230d5d6a5fdf1ca279e1d1fe9ddd96abdef17ff2ec5dfce',
      'results/traj_plus_e1.csv':
          '1acfb8003986e842381f9852df99377e8349c5bc03a9b75426b995c6e0be4f2d',
      'results/traj_plus_e2.csv':
          'ad1e39afc0ef795fbf3811635b11522ebbea46f70b93639ff2d9a5244f8f4119'}),
    ('ode_traj_off_kink',
     ['ode', '--problem', 'example46.json', '--at', '0.3,-0.7', '--traj', '--surface=-1:1:3', '--out',
      'results'],
     0, '533f496882ef8d0fed9206c4cc472784692aa75678593edc0038af6e471764f1',
     {'results/surface.csv':
          'fb1f12f69761e9375fa53a1c3e3352fe3278900c607b4e35427c909d83eb4e4c',
      'results/traj_minus_e1.csv':
          'b4514f782771a94555dd45daf87a2a47fe4eb754a33d365e3eb3f7dbbc2274ba',
      'results/traj_minus_e2.csv':
          '62c2826678a97586fce198147f30c185ee45012af23a54f63c18b0186bd4759c',
      'results/traj_plus_e1.csv':
          'a3fc8afb7add6e4f20d7a466fa64ccf64a66735dbb585dca51b65587dbdff314',
      'results/traj_plus_e2.csv':
          'feaa2b5888b583785aeb5d3352b32c621578cf4edbdd211dcc9c5ce2cf3edc16'}),
    ('danskin_circle',
     ['danskin', '--problem', 'danskin_circle.json', '--at', '0,0'],
     0, '452eadfba1efba3d5b490353898c3cef3f616d1a333f6e74fc1fe77edf314acf',
     {}),
    ('danskin_circle_eps',
     ['danskin', '--problem', 'danskin_circle.json', '--at', '1,0', '--eps-active', '1e-3'],
     0, 'de91770b4dd6b57c5d80c4cdb7def4f5dac82a64d36904c2e30c0a527cde1891',
     {}),
    ('danskin_sqdist',
     ['danskin', '--problem', 'danskin_sqdist.json', '--at', '0.25,-0.5'],
     0, '1962ac82d01a98df7fe10010cfa2e1a46e2b0f229ee937619b5adf46c2ff7cfa',
     {}),
    ('optimize_polyak',
     ['optimize', '--expr', '(norm (var 0) (var 1))', '--from', '3,4', '--polyak', '0'],
     0, '2b74bc5e5318ae310b5d692c0c97fa8f90e02be7210d92c5a3134dbafc34e063',
     {}),
    ('optimize_constant_out',
     ['optimize', '--expr', '(add (abs (var 0)) (abs (var 1)))', '--from', '1,-2', '--constant', '0.1',
      '--max-iters', '20', '--out', 'results'],
     0, 'abb7141ce92661e174ae669e0bf20ec0d90f33400d0062c4cdae45731f37b477',
     {'results/trace.csv':
          '697ea739b379a4ed34e599cda9b6368810df1ceb1d064e887661c8fc4cc75613'}),
    ('optimize_diminishing',
     ['optimize', '--expr', '(max (var 0) (neg (var 1)))', '--from', '0.5,0.5', '--diminishing', '1',
      '--max-iters', '30', '--json'],
     0, 'b32b5d2705e37e7834fe04ea8b3d909c693c213654fc73e611aabdf779c09537',
     {}),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, argv, code, stdout_sha, file_shas", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_is_pinned(name, argv, code, stdout_sha, file_shas, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == code
    assert _sha(capsys.readouterr().out.encode()) == stdout_sha
    written = {}
    for root, _, names in os.walk(tmp_path):
        for f in names:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                written[os.path.relpath(path, tmp_path)] = _sha(fh.read())
    assert written == file_shas

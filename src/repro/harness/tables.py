"""Table formatting plus the paper's published numbers for diffing.

``format_rows`` renders our measured rows in the layout of the paper's
tables: ``runtime (opt+join) | relative time vs RecPart-S | I, I_m, O_m``.
``PAPER`` holds the paper's numbers (inputs/outputs in millions of
tuples, times in seconds on 30 m3.xlarge EMR nodes) so every job can
print them next to ours and EXPERIMENTS.md can record the diff. Our
absolute numbers are at 1/2000 input scale with re-calibrated band
widths (DESIGN.md §3); the comparison target is the *shape*: who wins,
by what factor, and where duplication explodes.
"""
from __future__ import annotations

from .runner import MethodRun


def format_rows(
    label: str,
    runs: dict[str, MethodRun | None],
    baseline: str = "recpart_s",
) -> list[str]:
    """One markdown table row per method for a single experiment row."""
    base = runs.get(baseline)
    base_total = base.total_time if base else None
    out = []
    from .runner import PRETTY

    for m, r in runs.items():
        if r is None:
            name = PRETTY.get(m.split(":")[0], m)
            out.append(f"| {label} | {name} | - | - | - | - | - | - |")
            continue
        rel = f"{r.total_time / base_total:.2f}" if base_total else "-"
        ev = r.eval
        out.append(
            f"| {label} | {r.pretty} | "
            f"{r.total_time:.2f} ({r.opt_time:.2f}+{r.join_time_est:.2f}) | {rel} | "
            f"{ev.I} | {ev.I_m} | {ev.O_m} | "
            f"dup={ev.dup_overhead:.1%} load={ev.load_overhead:.1%} |"
        )
    return out


HEADER = (
    "| setting | method | runtime s (opt+join) | rel. vs RecPart-S | I | I_m | O_m | overheads |\n"
    "|---|---|---|---|---|---|---|---|"
)

#: The paper's published numbers, verbatim (I, I_m, O_m in millions).
PAPER: dict[str, str] = {
    "2a": """Paper Table 2a — pareto-1.5, d=1, w=30 (times s; I/I_m/O_m in millions):
  eps=0     RecPart-S 351(3+348)   CS_IO 512(29+483)    1-Bucket 762   Grid -    | RP-S I=400 I_m=14 O_m=83  | CS_IO 496/13/131 | 1B 2200/73/81  | Grid -
  eps=1e-5  RecPart-S 539(7+532)   CS_IO 686(31+655)    1-Bucket 1004  Grid 540  | RP-S 400/12/158 | CS_IO 475/8/266  | 1B 2200/73/153 | Grid 800/27/153
  eps=2e-5  RecPart-S 813(3+810)   CS_IO 992(30+962)    1-Bucket 1316  Grid 834  | RP-S 401/13/305 | CS_IO 488/10/388 | 1B 2200/73/304 | Grid 800/27/304
  eps=3e-5  RecPart-S 878(3+875)   CS_IO 1170(30+1140)  1-Bucket 1520  Grid 956  | RP-S 401/12/384 | CS_IO 479/10/503 | 1B 2200/73/376 | Grid 800/27/376""",
    "2b": """Paper Table 2b — pareto-1.5, d=3, w=30:
  eps=(0,0,0)  RecPart-S 230(1+229)  CS_IO 366(46+320)      1-Bucket 792   Grid -    | RP-S 401/14/0  | CS_IO 497/17/0  | 1B 2200/73/0  | Grid -
  eps=(2,2,2)  RecPart-S 344(2+342)  CS_IO 1339(694+645)    1-Bucket 1149  Grid 1412 | RP-S 404/15/29 | CS_IO 652/19/69 | 1B 2200/73/37 | Grid 5541/185/37
  eps=(4,4,4)  RecPart-S 860(2+858)  CS_IO 2557(1345+1212)  1-Bucket 1772  Grid 1816 | RP-S 413/14/290| CS_IO 838/31/321| 1B 2200/73/291| Grid 5485/183/291""",
    "2c": """Paper Table 2c — ebird x cloud, d=3, w=30:
  eps=(0,0,0)  RecPart-S 248(3+245)  CS_IO 346(38+308)      1-Bucket 1418  Grid -    | RP-S 890/30/0  | CS_IO 951/32/0   | 1B 4832/161/0  | Grid -
  eps=(1,1,1)  RecPart-S 332(3+329)  CS_IO 1945(968+977)    1-Bucket 1532  Grid 1419 | RP-S 895/35/5  | CS_IO 1490/95/9  | 1B 4832/161/11 | Grid 10891/361/11
  eps=(2,2,2)  RecPart-S 423(3+420)  CS_IO 2615(1553+1062)  1-Bucket 1573  Grid 1377 | RP-S 899/32/66 | CS_IO 1830/107/74| 1B 4832/161/67 | Grid 10783/361/74""",
    "3": """Paper Table 3 — pareto-z, d=3, eps=(2,2,2), w=30, skew z=0.5..2:
  z=0.5  RecPart-S 230(3+227)  CS_IO 609(263+346)    1-Bucket 1137  Grid 1146 | RP-S 401/13/0.3| CS_IO 577/20/1   | 1B 2200/73/0.4 | Grid 5582/186/0.4
  z=1.0  RecPart-S 290(3+287)  CS_IO 1064(525+539)   1-Bucket 1235  Grid 1335 | RP-S 401/13/17 | CS_IO 616/20/31  | 1B 2200/73/14  | Grid 5554/185/14
  z=1.5  RecPart-S 344(2+342)  CS_IO 1339(694+645)   1-Bucket 1149  Grid 1412 | RP-S 404/15/29 | CS_IO 652/19/69  | 1B 2200/73/37  | Grid 5541/185/37
  z=2.0  RecPart-S 485(2+483)  CS_IO 1811(1000+811)  1-Bucket 1369  Grid 2417 | RP-S 406/14/111| CS_IO 747/19/168 | 1B 2200/73/107 | Grid 5522/184/107""",
    "4a": """Paper Table 4a — pareto-1.5, d=3, eps=(2,2,2), scale input+workers:
  200M/15w  RecPart-S 306(1+305)  CS_IO 1227(767+460)  1-Bucket 779   Grid 1381  | RP-S 202/13/20 | CS_IO 290/19/36  | 1B 800/53/19   | Grid 2772/185/19
  400M/30w  RecPart-S 344(2+342)  CS_IO 1374(729+645)  1-Bucket 1149  Grid 1412  | RP-S 404/15/29 | CS_IO 652/19/69  | 1B 2200/73/37  | Grid 5541/185/37
  800M/60w  RecPart-S 438(4+434)  CS_IO 1721(801+920)  1-Bucket 1731  Grid FAIL  | RP-S 809/21/45 | CS_IO 1690/42/74 | 1B 6400/107/74 | Grid 11089/185/74""",
    "4b": """Paper Table 4b — ebird x cloud, d=3, eps=(2,2,2), scale input+workers:
  222M/15w  RecPart-S 207(3+204)  CS_IO 1213(942+271)   1-Bucket 547   Grid 812 | RP-S 223/15/11 | CS_IO 307/22/11  | 1B 856/57/9    | Grid 2688/179/9
  445M/30w  RecPart-S 193(3+190)  CS_IO 1778(1447+331)  1-Bucket 688   Grid 771 | RP-S 448/16/14 | CS_IO 748/26/27  | 1B 2420/81/18  | Grid 5403/180/18
  890M/60w  RecPart-S 215(2+213)  CS_IO 1919(1479+440)  1-Bucket 1117  Grid 793 | RP-S 899/13/44 | CS_IO 2040/38/35 | 1B 6870/114/36 | Grid 10805/180/36""",
    "4c": """Paper Table 4c — pareto-1.5, d=8, eps=20 each, w=30, scale input (model-estimated join):
  100M  RecPart 61(5+56)     CS_IO 528(449+79)   1-Bucket 292   Grid 173581  | RP 104/3/2   | CS_IO 142/5/1    | 1B 550/18/0.3  | Grid 297421/9914/0.3
  200M  RecPart 120(5+115)   CS_IO 612(448+164)  1-Bucket 587   Grid 347944  | RP 210/7/2   | CS_IO 285/10/5   | 1B 1100/37/2   | Grid 594834/19828/2
  400M  RecPart 240(8+232)   CS_IO 760(418+342)  1-Bucket 1180  Grid 694574  | RP 420/14/7  | CS_IO 574/7/67   | 1B 2200/73/7   | Grid 1189996/39667/7
  800M  RecPart 510(17+493)  CS_IO 1166(423+743) 1-Bucket 2390  Grid 1.39e6  | RP 847/26/31 | CS_IO 1180/53/4  | 1B 4400/147/29 | Grid 2379329/79311/29""",
    "4d": """Paper Table 4d — pareto-1.5, d=8, eps=20 each, 400M input, scale workers:
  w=1   all 3655 (single worker; Grid 8527502)         | 400/400/219 each  | Grid 1189996/1189996/219
  w=15  RecPart 358(5+353)   CS_IO -        1-Bucket 1295  Grid 1040000 | RP 420/28/10 | CS_IO 565/40/29 | 1B 1600/107/15 | Grid 1189996/79333/15
  w=30  RecPart 240(8+232)   CS_IO 760(418+342)  1-Bucket 1180 Grid 695000 | RP 420/14/7 | CS_IO 574/7/67 | 1B 2200/73/7 | Grid 1189996/39667/7
  w=60  RecPart 182(10+172)  CS_IO 3703(3431+272) 1-Bucket 1287 Grid 525000 | RP 425/6/5 | CS_IO 619/13/2 | 1B 3200/53/4 | Grid 1189996/19833/4""",
    "5": """Paper Table 5 — Grid-eps grid-size sweep, pareto-1.5, eps=(2,2,2), w=30 (join time model-estimated):
  grid (1,1,1) I=5610 I_m=180 O_m=38  t=2993   |  grid (2,2,2) I=5541 I_m=185 O_m=37 t=3021
  grid (4,4,4) I=1780 I_m=60  O_m=38  t=1023   |  grid (8,8,8) I=861  I_m=29  O_m=38 t=533
  grid (16,..) I=582  I_m=20  O_m=39  t=389    |  grid (32,..) I=478  I_m=16  O_m=42 t=336
  grid (64,..) I=435  I_m=15  O_m=56  t=344
  Grid* I=460 I_m=16 O_m=46 t=335 | RecPart-S I=404 I_m=15 O_m=29 t=286 | CS_IO I=652 I_m=19 O_m=69 t=459 | 1-Bucket I=2200 I_m=73 O_m=37 t=1236""",
    "6": """Paper Table 6 — Grid* vs RecPart (I/O in millions):
  pareto-2.0   (2,2,2):        RecPart 406/14/111 (from T3) | Grid* grid=8 497/17/130
  rv-pareto-1.5 (1K,1K,1K) d=3: RecPart 400/13/0 | Grid* grid=2750  882/237/0
  rv-pareto-1.5 (2K,2K,2K) d=3: RecPart 401/13/0 | Grid* grid=11500 1207/401/0""",
    "7": """Paper Table 7/11 — RecPart-S vs distributed IEJoin, pareto-z, w=30 (sizePerBlock sweep, best in middle):
  z=1.5 eps=0:       RP-S 401/14/0   | IEJoin 780/40/0 (spb 10000), 726/25/0 (12524), 756/28/0 (14000)
  z=1.5 eps=(2,2,2): RP-S 404/15/29  | IEJoin 1092/48/14 (6000), 1070/45/21 (7422), 1062/36/85 (9000)
  z=1.0 eps=(2,2,2): RP-S 401/13/17  | IEJoin 1176/40/21 (4000), 1080/37/26 (6263), 1088/48/4 (8000)
  z=0.5 eps=(2,2,2): RP-S 401/13/0.3 | IEJoin 828/24/1 (6000), 796/17/2 (8295), 820/20/2 (10000)""",
    "8": """Paper Table 8/13 — beta2/beta1 sweep, ebird x cloud, eps=(2,2,2), w=30:
  ratio 1e-4: RecPart I=890.34 Lm=289 ... ratio 1: I=890.8 Lm=189 ... ratio 1e4: I=890.8 Lm=189
  (RecPart trades a little more I for lower Lm=4*I_m+O_m as local cost weight grows)
  CS_IO I=1830 Lm=502 | 1-Bucket I=4832 Lm=711 | Grid-eps I=10800 Lm=1518 (constant across ratios)""",
    "9": """Paper Table 9/14 — RecPart-S vs RecPart (I/I_m/O_m in millions):
  pareto-1.0 (2,2,2):            RP-S 401/13/17  | RP 401/12/21   (tie)
  ebird x cloud (0,0,0):         RP-S 890/30/0   | RP 890/30/0    (tie)
  ebird x cloud (2,2,2):         RP-S 899/32/66  | RP 891/31/67   (tie)
  ebird x cloud (4,4,4):         RP-S 918/31/567 | RP 894/30/515
  rv-pareto-1.5 (1K,1K,1K) d=3:  RP-S 452/143/0  | RP 400/13/0    (RecPart 10x lower I_m)
  rv-pareto-1.5 (2K,2K,2K) d=3:  RP-S 430/173/0  | RP 401/13/0
  rv-pareto-1.5 d=1 eps=2:       RP-S 433/40/0   | RP 401/14/0
  rv-pareto-1.5 d=1 eps=1000:    RP-S 402/200/0  | RP 402/14/0""",
    "12": """Paper Table 12 — running-time model accuracy: <20% relative error in >70% of cases, never off by more than 1.8x; predictions rank methods correctly.""",
    "15": """Paper Table 15 — pareto-1.5, d=1..8, eps=5 per dim, w=30 (model-estimated join):
  d=1 out=1.12e8M: RecPart 6.77e6s  CS_IO 9.4e6s  1B 7.27e6s  Grid 7.27e6s | RP 531/18/3.47e6 | CS_IO 544/12/4.82e6 | 1B 2200/73/3.73e6 | Grid 785/27/3.73e6
  d=2 out=313000M: RecPart 20291(1+20290)  CS_IO 26488(113+26375)  1B 21446  Grid 21340 | RP 409/12/10300 | CS_IO 548/13/13400 | 1B 2200/73/10400 | Grid 1956/67/10400
  d=4 out=860M:    RecPart 266(3+263)  CS_IO 519(120+399)  1B 1222  Grid 8751 | RP 406/11/34 | CS_IO 573/27/19 | 1B 2200/73/29 | Grid 16004/547/29
  d=8 out=0:       RecPart 217(3+214)  CS_IO 458(151+307)  1B 1166  Grid 694560 | RP 404/14/0 | CS_IO 560/20/0 | 1B 2200/73/0 | Grid 1280326/43747/0""",
    "16": """Paper Table 16 — ptf_objects, d=2, theoretical termination, 1.198B input:
  eps=1 arcsec: RecPart 1198/39.98/29.08 | CS_IO 1488/60.02/32.13 | 1-Bucket 6589/220.00/29.20 | Grid 5990/199.67/29.20
  eps=3 arcsec: RecPart 1198/40.25/36.39 | CS_IO 1508/60.02/40.77 | 1-Bucket 6589/220.99/37.50 | Grid 5990/199.67/37.50""",
    "1": """Paper Table 1/10 — inputs 400M (pareto), 890M (ebird+cloud), 1198M (ptf); outputs range 0..17000M as band width grows; see the table in the paper for all 26 rows.""",
}

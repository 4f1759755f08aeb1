"""Where does the model look? Train briefly, then overlay class evidence.

Exports per-branch and aggregate heatmaps for a few target stamps to
demos/out/ and prints them as ASCII next to the input.

Run:  python demos/05_cam_heatmaps.py
"""

from pathlib import Path

import numpy as np

from msdalab.autodiff import Tensor
from msdalab.cam import aggregate_cams, compute_cams, export_pgm, upsample_nearest
from msdalab.data import default_roster, generate_domain, split, strip_labels
from msdalab.model import build_model, predict
from msdalab.trainer import HyperParams, train_multi_source

SHADES = " .:-=+*#%@"
OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def ascii_art(img):
    return "\n".join(
        "".join(SHADES[min(9, int(v * 9.999))] for v in row) for row in img[::2]
    )


TARGET = "Os"
SOURCES = ["Ab", "Bu"]
hp = HyperParams(epochs=6, seed=0)
roster = {s.name: s for s in default_roster()}
data = {n: generate_domain(roster[n], 400, hp.seed) for n in SOURCES + [TARGET]}
target_train, _, target_test = split(data[TARGET], hp.seed, stratified=False)

print("training a 2-source model (about half a minute)...")
model = build_model(2, 2, seed=hp.seed)
train_multi_source(model, [data[s] for s in SOURCES], strip_labels(target_train), hp)

ok_indices = np.flatnonzero(target_test.labels == 0)[:2]
for i in ok_indices:
    img = Tensor(target_test.images[i : i + 1])
    label, _ = predict(model, img)
    maps = compute_cams(model, img, 0)
    agg = aggregate_cams(maps)
    print(f"\n=== target stamp #{i} (true OK, predicted {'OK' if label[0] == 0 else 'NOT-OK'})")
    print("input:")
    print(ascii_art(target_test.images[i, 0]))
    print("aggregate OK-class evidence (bright = supports OK):")
    print(ascii_art(upsample_nearest(agg.values, (28, 28))))
    for j, hm in enumerate(maps):
        export_pgm(hm, OUT / f"{TARGET}_{j}_0_{i:04d}.pgm")
    export_pgm(agg, OUT / f"{TARGET}_aggregate_0_{i:04d}.pgm")

print(f"\nwrote heatmaps to {OUT}/ (pair them with the inputs from demo 03)")

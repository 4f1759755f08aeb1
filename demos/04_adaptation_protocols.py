"""Single-source vs source-combined vs multi-source, on a reduced budget.

Trains three protocols toward one held-out target domain and prints the
resulting target accuracies side by side. Uses smaller datasets and fewer
epochs than the defaults so it finishes in about a minute. This budget
does not separate the protocols: at these settings all three rows print
the same target accuracy (51.25%). Whether multi-source adaptation leads
is the open question of ROADMAP items 3 and 4, which need all six
targets and several seeds to answer.

Run:  python demos/04_adaptation_protocols.py
"""

from msdalab.data import default_roster, generate_domain, split, strip_labels
from msdalab.trainer import HyperParams, run_protocol

TARGET = "Os"
SOURCES = ["Ab", "Bu"]
N = 400
hp = HyperParams(epochs=6, seed=0)

roster = {s.name: s for s in default_roster()}
data = {name: generate_domain(roster[name], N, hp.seed) for name in SOURCES + [TARGET]}
target_train, _, target_test = split(data[TARGET], hp.seed, stratified=False)
target_unlabeled = strip_labels(target_train)

print(f"target: {TARGET}   sources: {SOURCES}   n={N}/domain   epochs={hp.epochs}")
print()

for protocol, names in (("single", SOURCES[:1]), ("combined", SOURCES), ("multi", SOURCES)):
    _, report = run_protocol(protocol, [data[s] for s in names], target_unlabeled, target_test, hp)
    print(f"{protocol:8s} ({'+'.join(names):>6s})        target accuracy "
          f"{100 * report.test_accuracy:6.2f}%")

print()
print("last-epoch loss components of the multi run:")
st = report.per_epoch[-1]
print(f"  cl={st.cl:.4f}  fd={st.fd:.4f}  cd={st.cd:.4f}  source-val={100 * st.val_accuracy:.1f}%")

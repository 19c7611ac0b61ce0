"""Seeded input generator and ground truth for the rtp benchmark.

Everything the benchmark sends to the program (XML documents, pattern and FD
DSL texts, the schema, the update stream) is made here from the workload
seed, together with the answer each request must get. The answers come
from the generator's own model of each document (the candidate records it
serialises), never from the engine.

Documents follow the exam-session shape of the paper's Figure 1:

  session / candidate @IDN / exam{discipline,date,mark,rank}* / level /
            (toBePassed{discipline+} | firstJob-Year)

Value design (so the FD verdicts are known):
  * every candidate has a band b in 0..4; its level is "ABCDE"[b], its marks
    lie in [4b, 4b+4) and, if graduated, its first-job year is 2010+b, so
    fd3 (mark pair -> level) and fd5 (level -> first-job year) hold;
  * ranks are a function of (discipline, mark), so fd1 holds;
  * a candidate's exams have distinct disciplines, so fd2 holds.
Small documents may carry a planted violation of fd1, fd2 or fd5.

fd_maintenance rewrites only FD targets (rank, level, first-job year) and
toBePassed disciplines, which no FD reads, so no FD's mapping or group
count ever changes. The update stream comes in blocks that each return the
document to its initial state: per update class, a probe that writes a new
value to one node and a restore that writes the node's old value back. Each
probed node shares its FD group with another node, so after a probe of
ranks, levels or fjyears the FD that class can break (fd1, fd3, fd5) is
violated, and after the restore it holds again. Every update thus has a
known verdict, which a lost update or a stale re-check would get wrong, and
the stream can be replayed from its start whenever it runs out.
"""

import json
import random

DISCIPLINES = ["alg", "bio", "che", "eco", "geo", "his", "phy", "lit"]
DATES = ["2009-06-%02d" % d for d in range(1, 31)]
LEVELS = "ABCDE"

SCHEMA = """schema {
  root session;
  element session { candidate* }
  element candidate { @IDN / exam* / level / (toBePassed|firstJob-Year) }
  element exam { discipline / date / mark / rank }
  element discipline { #text }
  element date { #text }
  element mark { #text }
  element rank { #text }
  element level { #text / comment* }
  element comment { #text }
  element toBePassed { discipline+ }
  element firstJob-Year { #text }
}"""

# Query templates: %NAME% marks a variable, so a variant that only renames
# variables can be made by substituting a fresh name.
QUERIES = {
    "marks": ("eval", "root { session/candidate { %x% = exam/mark; } } select %x%;"),
    "R2": ("eval", "root { session { candidate { %s1% = exam; %s2% = exam; } } } "
                   "select %s1%, %s2%;"),
    "R3": ("eval", "root { session { candidate { exam; %s% = level; } } } select %s%;"),
    "fd1": ("checkfd", "root { %c% = session { %x% = candidate/exam { %p1% = discipline; "
                       "%p2% = mark; %q% = rank; } } } select %p1%[V], %p2%[V], %q%[V]; "
                       "context %c%;"),
    "fd2": ("checkfd", "root { session { %c% = candidate { %x% = exam { %p2% = discipline; "
                       "%p1% = date; } } } } select %p1%[V], %p2%[V], %x%[N]; context %c%;"),
    "fd3": ("checkfd", "root { %c% = session { %x% = candidate { %p1% = exam/mark; "
                       "%p2% = exam/mark; %q% = level; } } } select %p1%[V], %p2%[V], "
                       "%q%[V]; context %c%;"),
    "fd5": ("checkfd", "root { %c% = session { %x% = candidate { %p% = level; "
                       "%q% = firstJob-Year; } } } select %p%[V], %q%[V]; context %c%;"),
}

# Update classes of examples/independence_audit, in matrix column order.
CLASSES = {
    "levels": "root { session/candidate { s = level; toBePassed; } } select s;",
    "ranks": "root { s = session/candidate/exam/rank; } select s;",
    "tbp": "root { s = session/candidate/toBePassed/discipline; } select s;",
    "fjyears": "root { s = session/candidate/firstJob-Year; } select s;",
}
MAINT_FDS = ["fd1", "fd2", "fd3", "fd5"]
MAINT_CLASSES = ["levels", "ranks", "tbp", "fjyears"]
# The (fd, class) pairs the criterion cannot clear: levels, ranks and
# fjyears each rewrite the target of one FD, and tbp rewrites nothing an FD
# reads. The other 13 pairs are independent.
MAINT_RECHECK = {("fd1", "ranks"), ("fd3", "levels"), ("fd5", "fjyears")}
# Probe values per class; a probe writes one that differs from the node's.
MAINT_VALUES = {
    "levels": list(LEVELS) + ["F", "G"],
    "ranks": [str(r) for r in range(1, 21)],
    "tbp": DISCIPLINES,
    "fjyears": [str(y) for y in range(2000, 2031)],
}
MAINT_LABEL = {"levels": "level", "ranks": "rank", "tbp": "discipline",
               "fjyears": "firstJob-Year"}


def query_text(name):
    """The DSL text of a query, with its variables under their own names."""
    return QUERIES[name][1].replace("%", "")


def rank_of(discipline, mark):
    return str(1 + (DISCIPLINES.index(discipline) * 7 + int(mark) * 3) % 20)


class Exam:
    __slots__ = ("discipline", "date", "mark", "rank")

    def __init__(self, discipline, date, mark, rank):
        self.discipline, self.date, self.mark, self.rank = discipline, date, mark, rank

    def xml(self):
        return ("<exam><discipline>%s</discipline><date>%s</date><mark>%s</mark>"
                "<rank>%s</rank></exam>" % (self.discipline, self.date, self.mark,
                                            self.rank))


class Candidate:
    __slots__ = ("idn", "exams", "level", "tbp", "fjyear")

    def xml(self):
        out = ['<candidate IDN="%s">' % self.idn]
        out.extend(e.xml() for e in self.exams)
        out.append("<level>%s</level>" % self.level)
        if self.tbp is not None:
            out.append("<toBePassed>%s</toBePassed>" % "".join(
                "<discipline>%s</discipline>" % d for d in self.tbp))
        else:
            out.append("<firstJob-Year>%s</firstJob-Year>" % self.fjyear)
        out.append("</candidate>")
        return "".join(out)

    def nodes(self):
        # candidate + @IDN, 9 per exam, level + text, then toBePassed with
        # its disciplines or firstJob-Year + text.
        tail = 1 + 2 * len(self.tbp) if self.tbp is not None else 2
        return 2 + 9 * len(self.exams) + 2 + tail


def make_candidate(rng, idx):
    c = Candidate()
    c.idn = "%05d" % idx
    band = rng.randrange(5)
    disciplines = sorted(rng.sample(DISCIPLINES, 4))
    c.exams = []
    for i, d in enumerate(disciplines):
        mark = str(4 * band + rng.randrange(4))
        c.exams.append(Exam(d, rng.choice(DATES), mark, rank_of(d, mark)))
    c.level = LEVELS[band]
    if rng.random() < 0.5:
        others = [d for d in DISCIPLINES if d not in disciplines]
        c.tbp, c.fjyear = sorted(rng.sample(others, 1 + rng.randrange(2))), None
    else:
        c.tbp, c.fjyear = None, str(2010 + band)
    return c


def plant_violations(rng, cands):
    """Small documents: plant a violation of fd1, fd2 or fd5 (or none)."""
    first, last = cands[0], cands[-1]
    kind = rng.choice(["none", "none", "fd1", "fd2", "fd5"])
    if kind == "fd1":
        src = first.exams[0]
        dst = last.exams[-1]
        dst.discipline, dst.mark = src.discipline, src.mark
        dst.rank = str(int(src.rank) % 20 + 1)
    elif kind == "fd2":
        a, b = last.exams[0], last.exams[1]
        b.discipline, b.date = a.discipline, a.date
    elif kind == "fd5":
        graduated = [c for c in cands if c.tbp is None]
        if graduated:
            graduated[-1].fjyear = "1999"


def doc_xml(cands):
    return "<session>" + "".join(c.xml() for c in cands) + "</session>"


def doc_nodes(cands):
    return 2 + sum(c.nodes() for c in cands)  # "/" root and session


# ---- Ground truth: answers by a direct walk of the candidate records. ----

def eval_answer(name, cands):
    if name == "marks":
        rows = [["<mark>%s</mark>" % e.mark] for c in cands for e in c.exams]
    elif name == "R2":
        rows = [[c.exams[i].xml(), c.exams[j].xml()] for c in cands
                for i in range(len(c.exams)) for j in range(i + 1, len(c.exams))]
    elif name == "R3":
        rows = [["<level>%s</level>" % c.level] for c in cands if c.exams]
    else:
        raise ValueError(name)
    return {"count": len(rows), "tuples": rows}


def fd_answer(name, cands):
    """Verdict, mapping count and group count of Definition 5's check."""
    groups = {}  # condition key -> set of target values (or node ids)
    mappings = 0
    for ci, c in enumerate(cands):
        if name == "fd1":
            for e in c.exams:
                groups.setdefault((e.discipline, e.mark), set()).add(e.rank)
                mappings += 1
        elif name == "fd2":
            for ei, e in enumerate(c.exams):
                groups.setdefault((ci, e.date, e.discipline), set()).add(ei)
                mappings += 1
        elif name == "fd3":
            ex = c.exams
            for i in range(len(ex)):
                for j in range(i + 1, len(ex)):
                    groups.setdefault((ex[i].mark, ex[j].mark), set()).add(c.level)
                    mappings += 1
        elif name == "fd5":
            if c.tbp is None:
                groups.setdefault(c.level, set()).add(c.fjyear)
                mappings += 1
        else:
            raise ValueError(name)
    satisfied = all(len(v) == 1 for v in groups.values())
    return {"satisfied": satisfied, "mappings": mappings, "groups": len(groups)}


def answer(name, cands):
    if QUERIES[name][0] == "eval":
        return eval_answer(name, cands)
    return fd_answer(name, cands)


# ---- Workloads. ----

SIZES = {
    # full size: what the benchmark measures; small: the determinism
    # self-test.
    "serve_point": {"full": dict(docs=300, cands=8), "small": dict(docs=12, cands=8)},
    "serve_scan": {"full": dict(docs=3, cands=2000, scratch=256, variants=4),
                   "small": dict(docs=3, cands=40, scratch=8, variants=2)},
    # blocks: the update stream, 8 ops per block; the benchmark replays it
    # from the start when a window outlasts it.
    "fd_maintenance": {"full": dict(cands=2000, blocks=1024),
                       "small": dict(cands=64, blocks=16)},
}


def serve_inputs(workload, rng, size):
    if workload == "serve_point":
        names = ["marks", "R2", "R3", "fd1", "fd2", "fd5"]
    else:
        names = ["R2", "R3", "fd1", "fd2", "fd5"]
    queries = [{"name": n, "op": QUERIES[n][0], "template": QUERIES[n][1],
                "text": query_text(n)} for n in names]
    docs = []
    for d in range(size["docs"]):
        cands = [make_candidate(rng, i) for i in range(size["cands"])]
        if workload == "serve_point":
            plant_violations(rng, cands)
        docs.append({"name": "d%d" % d, "xml": doc_xml(cands),
                     "nodes": doc_nodes(cands),
                     "expect": [answer(n, cands) for n in names]})
    out = {"queries": queries, "docs": docs, "scratch": []}
    for v in range(size.get("variants", 0)):
        cands = [make_candidate(rng, i) for i in range(size["scratch"])]
        out["scratch"].append({"name": "scratch", "xml": doc_xml(cands),
                               "nodes": doc_nodes(cands)})
    return out


def probe_targets(cands):
    """Per class, the nodes a probe may rewrite, as (candidate index, child
    index): the exam index for ranks, the toBePassed discipline index for
    tbp, else -1. A ranks, levels or fjyears target shares its fd1, fd3 or
    fd5 group with another node, so a new value there breaks that FD."""
    exams, pairs, levels = {}, {}, {}
    for ci, c in enumerate(cands):
        for e in c.exams:
            exams[(e.discipline, e.mark)] = exams.get((e.discipline, e.mark), 0) + 1
        for key in mark_pairs(c):
            pairs.setdefault(key, set()).add(ci)
        if c.tbp is None:
            levels[c.level] = levels.get(c.level, 0) + 1
    return {
        "levels": [[i, -1] for i, c in enumerate(cands) if c.tbp is not None
                   and any(len(pairs[key]) > 1 for key in mark_pairs(c))],
        "ranks": [[i, k] for i, c in enumerate(cands) for k, e in enumerate(c.exams)
                  if exams[(e.discipline, e.mark)] > 1],
        "tbp": [[i, 0] for i, c in enumerate(cands) if c.tbp is not None],
        "fjyears": [[i, -1] for i, c in enumerate(cands)
                    if c.tbp is None and levels[c.level] > 1],
    }


def mark_pairs(cand):
    """fd3's condition keys of one candidate."""
    ex = cand.exams
    return {(ex[i].mark, ex[j].mark) for i in range(len(ex)) for j in range(i + 1, len(ex))}


def maintenance_inputs(rng, size):
    cands = [make_candidate(rng, i) for i in range(size["cands"])]
    xml, nodes = doc_xml(cands), doc_nodes(cands)
    targets = probe_targets(cands)
    expect = {f: fd_answer(f, cands) for f in MAINT_FDS}
    # Each block holds a probe and a restore per class, shuffled with every
    # probe before its restore; one of the two replaces the node's subtree
    # and the other rewrites its value in place. Op = [class, target,
    # structural, value, verdict of the FD the class can break].
    ops = []
    for _ in range(size["blocks"]):
        order = [c for c in range(len(MAINT_CLASSES)) for _ in (0, 1)]
        rng.shuffle(order)
        probes = {}
        for c in order:
            cls = MAINT_CLASSES[c]
            if c in probes:
                k, old, structural = probes.pop(c)
                ops.append([c, k, 1 - structural, old, 1])
                continue
            k = rng.randrange(len(targets[cls]))
            old = read_value(cands, cls, targets[cls][k])
            new = rng.choice([v for v in MAINT_VALUES[cls] if v != old])
            probes[c] = (k, old, rng.randrange(2))
            breaks = any((f, cls) in MAINT_RECHECK for f in MAINT_FDS)
            ops.append([c, k, probes[c][2], new, 0 if breaks else 1])
    # Confirm the verdicts on the model for the first blocks: after each op
    # the FD its class can break has the recorded verdict, every other FD
    # keeps its answer, and no mapping or group count changes.
    want = {f: dict(expect[f]) for f in MAINT_FDS}
    for c, k, _, value, verdict in ops[:16]:
        cls = MAINT_CLASSES[c]
        write_value(cands, cls, targets[cls][k], value)
        for f in MAINT_FDS:
            if (f, cls) in MAINT_RECHECK:
                want[f]["satisfied"] = bool(verdict)
            if fd_answer(f, cands) != want[f]:
                raise AssertionError("update %s gives %s a wrong verdict" % (cls, f))
    if doc_xml(cands) != xml:
        raise AssertionError("a block does not restore the document")
    return {
        "schema": SCHEMA,
        "xml": xml,
        "nodes": nodes,
        "fds": [{"name": f, "text": query_text(f), "expect": expect[f]}
                for f in MAINT_FDS],
        "classes": [{"name": c, "text": CLASSES[c], "label": MAINT_LABEL[c],
                     "targets": targets[c]} for c in MAINT_CLASSES],
        "independent": [[(f, c) not in MAINT_RECHECK for c in MAINT_CLASSES]
                        for f in MAINT_FDS],
        "ops": ops,
    }


def read_value(cands, cls, target):
    cand = cands[target[0]]
    if cls == "levels":
        return cand.level
    if cls == "ranks":
        return cand.exams[target[1]].rank
    if cls == "tbp":
        return cand.tbp[target[1]]
    return cand.fjyear


def write_value(cands, cls, target, value):
    cand = cands[target[0]]
    if cls == "levels":
        cand.level = value
    elif cls == "ranks":
        cand.exams[target[1]].rank = value
    elif cls == "tbp":
        cand.tbp[target[1]] = value
    else:
        cand.fjyear = value


def generate(workload, seed, small=False):
    rng = random.Random(seed)
    size = SIZES[workload]["small" if small else "full"]
    out = {"workload": workload, "seed": seed}
    if workload == "fd_maintenance":
        out.update(maintenance_inputs(rng, size))
    else:
        out.update(serve_inputs(workload, rng, size))
    return out


def write_inputs(path, workload, seed, small=False):
    with open(path, "w") as f:
        json.dump(generate(workload, seed, small), f, separators=(",", ":"))

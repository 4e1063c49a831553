"""Output checks for the rmt_serve benchmark, computed apart from the program.

Nothing here calls into rmt: every check works from the instance the
benchmark generated (gen.Inst) and the bytes the server answered.

  * verify_witness  - Def. 3 (RMT-cut) and Def. 7 (Z-pp cut) witnesses;
  * check_analyze   - zcpa_solvable => rmt_solvable => full_knowledge_solvable;
  * find_cut        - a brute-force cut search: with `deep`, every
                      'solvable' claim of a decide or analyze answer must
                      leave it without a cut;
  * check_simulate  - Thm 4 (`wrong` is never true) and Thm 5 (`correct`
                      whenever the instance has no RMT-cut, decided here by
                      brute force over connected receiver sides);
  * check_stats     - the stats probe's `computed` / `disk_hits` deltas
                      against the benchmark's own counts;
  * check_hits      - every hit byte-identical to a fresh no_cache answer.

Each returns a list of problems (empty = pass). `python3 checks.py
--self-test` feeds every check a corrupted answer and fails unless each
one is rejected.
"""

import sys


def node_set(text):
    """Parse a NodeSet spelling such as "{1, 4}"."""
    body = text.strip()[1:-1].strip()
    return frozenset(int(x) for x in body.split(",")) if body else frozenset()


def admissible(inst, nodes):
    return not nodes or any(nodes <= m for m in inst.maximal_sets)


def neighborhood(inst, b):
    out = set()
    for v in b:
        out |= inst.adj[v]
    return out - b


def is_connected(inst, b):
    if not b:
        return False
    start = next(iter(b))
    seen, stack = {start}, [start]
    while stack:
        for w in inst.adj[stack.pop()]:
            if w in b and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(b)


def cut_condition(inst, b, c2, definition):
    """Def. 3: C2 ∩ V(γ(B)) ∈ Z_B, i.e. C2 ∩ V(γ(v)) ∈ Z_v for every v in B
    (the joint view of Thm 1 is the conjunction of the local ones).
    Def. 7: N(u) ∩ C2 ∈ Z_u for every u in B."""
    for v in b:
        local = inst.views[v] if definition == "rmt" else inst.adj[v]
        if not admissible(inst, c2 & local):
            return False
    return True


def verify_witness(inst, witness, definition):
    """Problems with a cut witness {"c1","c2","b"} under Def. 3 ("rmt") or
    Def. 7 ("zpp")."""
    try:
        c1, c2, b = (node_set(witness[k]) for k in ("c1", "c2", "b"))
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        return [f"malformed witness {witness!r}: {e}"]
    c = c1 | c2
    problems = []
    if inst.receiver not in b:
        problems.append("receiver not in B")
    if inst.dealer in b or inst.dealer in c:
        problems.append("dealer in B or in C")
    if b & c:
        problems.append("B meets C")
    if not is_connected(inst, b):
        problems.append("B is not connected")
    if not neighborhood(inst, b) <= c:
        problems.append("N(B) not inside C: B is not the receiver's component of G - C")
    if not admissible(inst, c1):
        problems.append("C1 not in Z")
    if not cut_condition(inst, b, c2, definition):
        problems.append(f"C2 fails the Def. {'3' if definition == 'rmt' else '7'} condition")
    return problems


def _mask(nodes):
    out = 0
    for v in nodes:
        out |= 1 << v
    return out


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


LOCAL = {"rmt": "Def. 3", "zpp": "Def. 7", "full": "full knowledge"}


def find_cut(inst, definition):
    """Brute-force search for a cut under Def. 3 ("rmt"), Def. 7 ("zpp") or
    full knowledge ("full": every node sees the whole graph). Returns a
    witness {"c1","c2","b"} or None.

    It walks every connected B containing R that avoids D and D's
    neighbours (a B next to D has D in N(B), and so has every B grown
    from it), takes C = N(B), and tries each C1 = C ∩ M for a maximal M:
    a larger C1 only shrinks C2, so these are the only C1 worth trying."""
    adj = [_mask(a) for a in inst.adj]
    everything = (1 << inst.n) - 1
    local = {"rmt": [_mask(v) for v in inst.views], "zpp": adj,
             "full": [everything] * inst.n}[definition]
    maximal = [_mask(m) for m in inst.maximal_sets]
    allowed = everything & ~(1 << inst.dealer) & ~adj[inst.dealer]
    r = 1 << inst.receiver
    if not r & allowed:
        return None
    memo = {0: True}

    def admissible_mask(x):
        if x not in memo:
            memo[x] = any(not x & ~m for m in maximal)
        return memo[x]

    def cut_at(b, c):
        for c1 in {c & m for m in maximal} or {0}:
            c2 = c & ~c1
            if all(admissible_mask(c2 & local[v]) for v in _bits(b)):
                return c1, c2
        return None

    def grow(b, nbr, frontier, excluded):
        yield b, nbr & ~b
        for v in _bits(frontier):
            frontier &= ~(1 << v)
            nb = b | 1 << v
            yield from grow(nb, nbr | adj[v], (frontier | adj[v]) & allowed & ~nb & ~excluded,
                            excluded)
            excluded |= 1 << v

    names = lambda mask: "{" + ", ".join(map(str, _bits(mask))) + "}"  # noqa: E731
    for b, c in grow(r, adj[inst.receiver], adj[inst.receiver] & allowed, 0):
        found = cut_at(b, c)
        if found:
            return {"c1": names(found[0]), "c2": names(found[1]), "b": names(b)}
    return None


def has_rmt_cut(inst):
    return find_cut(inst, "rmt") is not None


def check_solvable_claim(inst, definition):
    """A 'solvable' claim must leave the brute-force search without a cut."""
    cut = find_cut(inst, definition)
    return [] if cut is None else [f"claims solvable, but {cut} is a {LOCAL[definition]} cut"]


def check_answer(req, result, rmt_cut=None, deep=False):
    """Semantic checks of one ok answer to request `req` (a gen.Request).
    `rmt_cut` is the brute-force verdict for simulate instances. With
    `deep`, every 'solvable' claim is also checked by brute force."""
    kind = req.kind
    if result.get("kind") != kind:
        return [f"result kind {result.get('kind')!r} != {kind}"]
    if kind in ("decide_rmt", "decide_zpp"):
        definition = "rmt" if kind == "decide_rmt" else "zpp"
        if not result["solvable"]:
            return verify_witness(req.inst, result["witness"], definition)
        if result["witness"] is not None:
            return ["solvable answer carries a witness"]
        return check_solvable_claim(req.inst, definition) if deep else []
    if kind == "analyze":
        return check_analyze(req.inst, result, deep)
    return check_simulate(result, rmt_cut)


def check_analyze(inst, result, deep=False):
    problems = []
    z, r, f = (result.get(k) for k in ("zcpa_solvable", "rmt_solvable", "full_knowledge_solvable"))
    if z and not r:
        problems.append("zcpa_solvable but not rmt_solvable")
    if r and not f:
        problems.append("rmt_solvable but not full_knowledge_solvable")
    if not r:
        problems += verify_witness(inst, result.get("rmt_cut_witness"), "rmt")
    if deep:
        for claim, definition in ((z, "zpp"), (r, "rmt"), (f, "full")):
            if claim:
                problems += check_solvable_claim(inst, definition)
    return problems


def check_simulate(result, rmt_cut):
    problems = []
    if result.get("wrong") is not False:
        problems.append("Thm 4: the receiver decided a wrong value")
    if rmt_cut is False and result.get("correct") is not True:
        problems.append("Thm 5: no RMT-cut, yet the receiver did not decide correctly")
    return problems


def check_stats(before, after, distinct_sent, first_store_touches):
    problems = []
    computed = after["engine"]["computed"] - before["engine"]["computed"]
    if computed != distinct_sent:
        problems.append(f"stats computed delta {computed} != {distinct_sent} distinct requests sent")
    disk = after["engine"]["disk_hits"] - before["engine"]["disk_hits"]
    if disk != first_store_touches:
        problems.append(f"stats disk_hits delta {disk} != {first_store_touches} first touches")
    return problems


def check_hits(hit_bytes, fresh_bytes):
    """hit_bytes: identity -> set of result byte strings served as hits;
    fresh_bytes: identity -> result bytes of a no_cache answer."""
    problems = []
    for ident, seen in hit_bytes.items():
        fresh = fresh_bytes.get(ident)
        if seen != {fresh}:
            problems.append(f"hit bytes differ from the fresh answer for request {ident}")
    return problems


def result_bytes(line):
    """The raw `result` segment of an rmt.response/1 line, or None."""
    start = line.find('"result":')
    end = line.find(',"error":', start)
    if start < 0 or end < 0:
        return None
    return line[start + len('"result":'):end]


# --- self-test ----------------------------------------------------------------

def self_test():
    import random

    import gen

    failures = []
    # A 6-cycle 0-1-2-3-4-5, dealer 0, receiver 3, 1-threshold, ad hoc views.
    inst = gen.Inst(6, gen.cycle_edges(6), 0, 3, gen.threshold_sets(6, 1, 0, 3), 1, "cycle6")
    good = {"c1": "{2}", "c2": "{4}", "b": "{3}"}
    for definition in ("rmt", "zpp"):
        if verify_witness(inst, good, definition):
            failures.append(f"valid {definition} witness rejected: {verify_witness(inst, good, definition)}")
        flipped = dict(good, b="{3, 4}")
        if not verify_witness(inst, flipped, definition):
            failures.append(f"{definition} witness with one node of B flipped accepted")
    if not verify_witness(inst, dict(good, c1="{2, 4}", c2="{}"), "rmt"):
        failures.append("witness with C1 outside Z accepted")

    if not has_rmt_cut(inst):
        failures.append("brute-force oracle missed the 6-cycle's cut")
    full = gen.Inst(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)], 0, 3,
                    gen.threshold_sets(4, 1, 0, 3), 1, "k4-minus")
    if has_rmt_cut(full):
        failures.append("brute-force oracle found a cut across a direct dealer-receiver edge")

    ok_analyze = {"kind": "analyze", "rmt_solvable": False, "rmt_cut_witness": good,
                  "zcpa_solvable": False, "full_knowledge_solvable": True}
    if check_analyze(inst, ok_analyze):
        failures.append("consistent analyze answer rejected")
    if not check_analyze(inst, dict(ok_analyze, zcpa_solvable=True)):
        failures.append("analyze answer with zcpa_solvable and not rmt_solvable accepted")
    if not check_analyze(full, {"rmt_solvable": True, "zcpa_solvable": False,
                                "full_knowledge_solvable": False}):
        failures.append("analyze answer with rmt_solvable and not full_knowledge_solvable accepted")

    cycle_req = gen.Request("c", "decide_rmt", inst)
    if not check_answer(cycle_req, {"kind": "decide_rmt", "solvable": True, "witness": None},
                        deep=True):
        failures.append("decide_rmt 'solvable' answer on the 6-cycle, which has a cut, accepted")
    if not check_analyze(inst, {"rmt_solvable": True, "zcpa_solvable": False,
                                "full_knowledge_solvable": True}, deep=True):
        failures.append("analyze 'rmt_solvable' answer on the 6-cycle accepted")
    if check_analyze(full, {"rmt_solvable": True, "zcpa_solvable": True,
                            "full_knowledge_solvable": True}, deep=True):
        failures.append("analyze 'solvable' answer across a direct dealer-receiver edge rejected")
    # The brute-force search and the witness verifier are written apart:
    # every cut the search finds must verify, on small random instances.
    rng = random.Random(11)
    for _ in range(30):
        small = gen.miss_simulate(rng, "s").inst
        for definition in ("rmt", "zpp"):
            cut = find_cut(small, definition)
            if cut and verify_witness(small, cut, definition):
                failures.append(f"brute-force {definition} cut fails the verifier: {cut}")

    if check_simulate({"wrong": False, "correct": True}, False):
        failures.append("sound simulate answer rejected")
    if not check_simulate({"wrong": True, "correct": False}, True):
        failures.append("simulate answer with wrong: true accepted")
    if not check_simulate({"wrong": False, "correct": False}, False):
        failures.append("undecided simulate on a cut-free instance accepted")

    before = {"engine": {"computed": 10, "disk_hits": 0}}
    if check_stats(before, {"engine": {"computed": 15, "disk_hits": 3}}, 5, 3):
        failures.append("matching stats rejected")
    if not check_stats(before, {"engine": {"computed": 16, "disk_hits": 3}}, 5, 3):
        failures.append("stats with one extra computation accepted")

    line = ('{"schema":"rmt.response/1","id":"h1","status":"ok","key":"ab",'
            '"result":{"kind":"decide_rmt","solvable":true,"witness":null},"error":null}')
    fresh = {"q": result_bytes(line)}
    if check_hits({"q": {result_bytes(line)}}, fresh):
        failures.append("identical hit rejected")
    if not check_hits({"q": {result_bytes(line.replace("true", "false"))}}, fresh):
        failures.append("hit whose bytes differ accepted")

    # Generated shapes stay within what the checks assume.
    rng = random.Random(7)
    for req in gen.hot_set(rng, 40, "t", gen.Distinct()):
        assert req.inst.text.startswith("rmt-instance v1\n")
    for failure in failures:
        print("FAIL:", failure)
    print("checks self-test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        print("usage: checks.py --self-test", file=sys.stderr)
        sys.exit(2)
    sys.exit(self_test())

"""The nested proof report, rebuilt from the flat one.

`frontend.tree_to_json` writes a proof as a formula table and a preorder
list of nodes.  `expand` turns that back into the nested form the report
had before: each node a dict with its whole `domain` and `context`, and
its children nested under `children`.  The corpus, random-order and
chain digests are pinned on that form, written by `v1_json`, so they
show that the flat report loses nothing.
"""

import json


def formula_texts(formulas):
    """The text of every entry of a formula table: parts come first."""
    texts = []
    for entry in formulas:
        if isinstance(entry, str):
            texts.append(entry)
        elif entry[0] in ("and", "or"):
            texts.append("(%s %s %s)" % (entry[0], texts[entry[1]], texts[entry[2]]))
        else:
            texts.append("(%s ((%s %s)) %s)" % (entry[0], entry[1], entry[2], texts[entry[3]]))
    return texts


def expand(proof):
    """The nested report of a flat proof, or None for no proof."""
    if proof is None:
        return None
    texts = formula_texts(proof["formulas"])
    flat = proof["nodes"]
    nested = []
    parent_of = {}
    for i, node in enumerate(flat):  # preorder: a parent comes before its children
        context, domain = [], []
        if i in parent_of:
            parent = nested[parent_of[i]]
            principal = flat[parent_of[i]]["principal"]
            context = parent["context"][:principal] + parent["context"][principal + 1:]
            domain = parent["domain"]
        out = {key: value for key, value in node.items()
               if key not in ("added", "declared", "children")}
        out["context"] = [texts[k] for k in node["added"]] + context
        out["domain"] = domain + node["declared"]
        for child in node.get("children", ()):
            parent_of[child] = i
        nested.append(out)
    for node, out in zip(flat, nested):
        if node.get("children"):
            out["children"] = [nested[child] for child in node["children"]]
    return nested[0]


def v1_json(report):
    """The bytes a run report had before the flat format: the report with
    its proof nested, written with two-space indentation."""
    canonical = report.canonical()
    return json.dumps({**canonical, "proof": expand(canonical["proof"])},
                      indent=2, sort_keys=True)

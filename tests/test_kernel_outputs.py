"""Output guard for the product and coproduct kernels.

Every product of total degree <= 5 and every coproduct of degree <= 5
(``efsym`` <= 4) on all six algebras is encoded in the JSON element schema,
in enumeration order, and hashed.  A rewrite of a kernel, of a key type or
of its order must reproduce these digests output for output.
"""

import hashlib
import json

import pytest

import treehopf  # noqa: F401  (registers the algebras)
from treehopf.algebra import element_to_json, get_algebra, tensor_to_json

PRODUCT_DEGREE = 5
COPRODUCT_DEGREE = {"efsym": 4}

DIGESTS = {  # (products, coproducts), recorded while ck keys were canonical strings
    "ck": ("d4b60ed7aa269c04270c61cfdddec42d97e9fd75304bc0aa98837f78a347879d",
            "d7651bc7e2aa115ccce71effa60b123e34088bf27759f38d35d66a11894043c8"),
    "efsym": ("dda0a3ceb89ee264ed8fb24e9c56608464a98ce59dcc8a0bbbba290d4bad0e8c",
               "f59bbfbd878615b47aea73b38c0608b64412e2e10fe7f19d2a74dba94bff28b1"),
    "ho": ("3ad5701ff4e89867d807177c2193acb227c675f610178dc35f36087d3f07bdf2",
            "0d5f235f1a0d786645dac71833599336f50ff6ef37133cbce70e8b2901fb855d"),
    "nck": ("8ce543a78d9592d17627c3fd0de26994f72f59ec96fdb9648bcd2341886ab2d5",
             "5e8ac0fe23944cc538c25965ffd74d592b75d354b8c8f5cdb3678bf5891f7b8e"),
    "sgsym": ("6b5db028f037f84f621a4f4fe28e099e6364763b9c1d808163dbd68806ec0543",
               "b25f7b7d2014c13b5e1dfb0c2b9205ba23ef55552c0b7e985829c711e711f549"),
    "wqsym": ("d29ca6417c6bf823b2d9ecb39950bf9cdb7746a5558a709522267a369549b52b",
               "68cb8e30ebf01f91a2900163f6ca79b568177aa021c0813cc204a8e1310d675d"),
}


def _digest(outputs: list) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def kernel_digests(tag: str) -> tuple[str, str]:
    ops = get_algebra(tag)
    keys = [ops.keys_of_degree(n) for n in range(PRODUCT_DEGREE + 1)]
    products = [
        element_to_json(ops.product(a, b))
        for total in range(PRODUCT_DEGREE + 1)
        for da in range(total + 1)
        for a in keys[da]
        for b in keys[total - da]
    ]
    top = COPRODUCT_DEGREE.get(tag, PRODUCT_DEGREE)
    coproducts = [tensor_to_json(ops.coproduct(x)) for n in range(top + 1) for x in keys[n]]
    return _digest(products), _digest(coproducts)


@pytest.mark.parametrize("tag", sorted(DIGESTS))
def test_kernel_outputs_match_the_recorded_digests(tag):
    assert kernel_digests(tag) == DIGESTS[tag]

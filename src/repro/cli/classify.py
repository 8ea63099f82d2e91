"""``classify``: the Section 2 taxonomy of an equations file."""

from ..odes import classify
from .common import EQUATIONS, load_system


def configure(subparsers) -> None:
    p = subparsers.add_parser("classify", parents=[EQUATIONS],
                              help="Section 2 taxonomy")
    p.set_defaults(func=run)


def run(args) -> int:
    system = load_system(args)
    print(system.render())
    print()
    print(classify(system).render())
    return 0

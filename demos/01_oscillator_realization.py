"""Walk through the oscillator construction of the two algebra families.

Every structure constant in the package is computed, never typed in: basis
elements are quadratics in creation/annihilation operators, a bracket is
read off the two labels' oscillator letters by Wick's rule, and a form entry
by their double contraction.
"""

from affine_singular.liealg import build_algebra
from affine_singular.weyl import annihilation, creation


def main():
    print("= the oscillator algebra =")
    a1 = creation(2, 1)
    s1 = annihilation(2, 1)
    print("a*1 a1      =", s1 * a1)
    print("[a1, a*1]   =", a1 * s1 - s1 * a1)
    print("[a1^2, a*1^2] =", (a1 * a1) * (s1 * s1) - (s1 * s1) * (a1 * a1))
    print()

    print("= sp_4 from two oscillator pairs =")
    table = build_algebra("C", 2)
    for line in table.info_lines():
        print(line)
    print()

    print("= the sl_3 subfamily uses the mixed quadratics only =")
    table = build_algebra("A", 3)
    print("dimension", table.dimension)
    for n in range(table.dimension):
        print("  %-8s -> %s" % (table.text(n), table.realizations[n]))
    print()
    print("sample bracket: [X[e1-e2], X[e2-e3]] =",
          " + ".join("(%s) %s" % (c, table.text(z))
                     for z, c in table.bracket("X[e1-e2]", "X[e2-e3]")))
    print("form pairing:   (X[e1-e3], X[e3-e1]) =", table.form("X[e1-e3]", "X[e3-e1]"))


if __name__ == "__main__":
    main()

"""Print every stage of the order-five numerator derivation.

The numerator is the multidegree of the ideal of the basic relations up
to level five, taken in the uhat coordinates with their torus weights.
It factors as the weight of the one non-toric level-five relation times
a quadratic toric quotient.
"""

from thomcalc import basic_relations, qhat, qhat5_derivation_steps


def main() -> None:
    relations = [rel for rel in basic_relations(5) if rel.level == 5]
    print("level-5 basic relations:")
    for rel in relations:
        kind = "toric" if rel.toric else "non-toric"
        print(f"  {rel.label()}  [{kind}]  {rel.polynomial.to_text()}")

    steps = qhat5_derivation_steps()
    print()
    print(f"multidegree:    {steps.result.to_text()}")
    print(f"weight factor:  {steps.weight_factor.to_text()}")
    print(f"quotient:       {steps.toric_quotient.to_text()}")
    assert steps.result == qhat(5)
    print()
    print("matches the registry entry for order five")


if __name__ == "__main__":
    main()

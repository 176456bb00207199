"""Where the decay is exponential: window extraction and grading.

For each benchmark parameter set, prints the admitted modes, the
lab-frame window, and the graded constraint checks. The same mode set
is then rerun with a later window start to show the checks flipping
from fail to pass.
"""

import oscdecay as od
from oscdecay.window import WindowParams


SETS = {
    "p150_m30":  dict(p=150.0, M=30.0,  Omega=5.0,  a=0.09),
    "p200_m80":  dict(p=200.0, M=80.0,  Omega=10.0, a=0.04),
    "p210_m100": dict(p=210.0, M=100.0, Omega=10.0, a=0.04),
    "p200_m150": dict(p=200.0, M=150.0, Omega=40.0, a=0.01),
    "p100_m100": dict(p=100.0, M=100.0, Omega=10.0, a=0.04),
}


def show(name, cfg, params):
    modes = od.validate_modes({
        "M": cfg["M"], "w": [1.0], "Gamma": [1.0],
        "Omega": [cfg["Omega"]], "a": [cfg["a"]],
    })
    ctx = od.shifted_kinematics(modes, cfg["p"])
    win = od.exponential_windows(modes, ctx, params)
    if not win.union_lab:
        js = ", ".join("mode %d (xi'=%.2e)" % (e.mode, e.xi) for e in win.excluded)
        print(f"{name}: gamma={ctx.gamma:.4f} no window; excluded {js}")
    else:
        lo, hi = win.union_lab[0]
        print(f"{name}: gamma={ctx.gamma:.4f} window_lab=[{lo:.4f}, {hi:.4f}]"
              f" xi'={win.xi_values[0]:.2e}")
    for check in od.constraint_report(modes, ctx, win):
        print(f"    {check.name:<16} {check.value:10.4f}  {check.status}")


def main():
    print("published window constants (zeta_min = 1e-4, start very early):")
    show("p200_m80", SETS["p200_m80"], WindowParams())

    print()
    print("same set, window started later (zeta_min = 0.05):")
    show("p200_m80", SETS["p200_m80"], WindowParams(zeta_min=0.05))

    print()
    print("all five sets, later start:")
    for name, cfg in SETS.items():
        modes = od.validate_modes({
            "M": cfg["M"], "w": [1.0], "Gamma": [1.0],
            "Omega": [cfg["Omega"]], "a": [cfg["a"]],
        })
        ctx = od.shifted_kinematics(modes, cfg["p"])
        win = od.exponential_windows(modes, ctx, WindowParams(zeta_min=0.05))
        checks = od.constraint_report(modes, ctx, win)
        grade = "all pass" if all(c.status == "pass" for c in checks) else \
            ",".join(c.status for c in checks)
        if not win.union_lab:
            print(f"  {name:<11} no window (xi' above gate)  checks: {grade}")
        else:
            lo, hi = win.union_lab[0]
            print(f"  {name:<11} window_lab=[{lo:7.4f}, {hi:8.4f}]  checks: {grade}")


if __name__ == "__main__":
    main()

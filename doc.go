// Package pmedic is a Go reproduction of ProgrammabilityMedic (Dou, Guo,
// Xia — IEEE ICDCS 2021): predictable path-programmability recovery under
// multiple controller failures in software-defined WANs.
//
// When SDN controllers fail, the switches they manage go offline and the
// flows crossing those switches can no longer be rerouted. ProgrammabilityMedic
// (PM) restores that path programmability by exploiting the hybrid
// OpenFlow/OSPF pipeline of high-end commercial switches: per offline flow,
// per offline switch, it decides whether the flow stays on the legacy table
// (free) or gets an OpenFlow entry (costing one session on the controller
// the switch is remapped to), balancing per-flow programmability first and
// total programmability second — the FMSSM optimization problem.
//
// The module contains everything the paper's evaluation needs, implemented
// from scratch on the standard library:
//
//   - the FMSSM model, the PM heuristic, and the RetroFlow (switch-level)
//     and ProgrammabilityGuardian (flow-level) baselines (internal/core);
//   - an exact comparator solving the FMSSM integer program with a pure-Go
//     bounded-variable simplex and branch & bound (internal/lp, internal/mip,
//     internal/opt);
//   - the evaluation topology — an ATT-North-America-like 25-node backbone
//     with six controller domains (internal/topo) — and the all-pairs
//     shortest-path workload with path-programmability coefficients
//     (internal/flow);
//   - a behavioural SD-WAN simulator: hybrid-pipeline switches over
//     converged OSPF (shortest-delay) legacy tables, controller failure
//     injection, and recovery application with real packet traces
//     (internal/sdnsim), plus an OpenFlow-style control-channel codec and TCP
//     transport (internal/openflow);
//   - the experiment harness regenerating every figure of the paper
//     (internal/eval, cmd/pmsim, and the tests in figures_test.go).
//
// The root package has no code of its own. Its tests are the reproduction
// run: one per table and figure of the evaluation, plus the workflow the
// commands under cmd/ run, end to end. DESIGN.md has the system inventory.
package pmedic

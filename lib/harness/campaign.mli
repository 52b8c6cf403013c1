(** Campaign runner: one entry point over every engine in the evaluation.

    Engines (paper Section V-A):
    - [Ifsim] — Iverilog-force-style baseline: interpreted, event-driven,
      one full simulation per fault;
    - [Vfsim] — Verilator-based fault simulator: compiled, cycle-based, one
      simulation per fault;
    - [Z01x_proxy] — stand-in for the commercial Z01X: the concurrent
      engine with explicit (input-comparison) redundancy elimination only
      (see DESIGN.md for why this proxy is faithful);
    - [Eraser_mm] ("Eraser--") — concurrent, no redundancy elimination;
    - [Eraser_m] ("Eraser-") — concurrent, explicit elimination;
    - [Eraser] — concurrent, explicit + implicit (Algorithm 1). *)




type engine = Ifsim | Vfsim | Z01x_proxy | Eraser_mm | Eraser_m | Eraser

val engine_name : engine -> string
val all_engines : engine list

(** Redundancy-elimination mode of a concurrent engine; raises
    [Invalid_argument] for the serial baselines [Ifsim] and [Vfsim]. *)
val concurrent_mode : engine -> Engine.Concurrent.mode

(** The one engine-dispatch point: run [engine] over the fault-id subset
    [ids]. The serial baselines get the subset renumbered; concurrent
    engines go through {!Engine.Concurrent.run_batch} with the optional
    config / divergence probe / warm-start trace / precompiled instance
    passed straight through (all ignored by the serial baselines).
    {!Resilient} and every planned batch here share this function — the
    engine match must exist exactly once. *)
val dispatch :
  ?instrument:bool ->
  ?config:Engine.Concurrent.config ->
  ?probe:(int -> (int -> int -> Rtlir.Bits.t) -> (int -> int -> int -> Rtlir.Bits.t) -> unit) ->
  ?goodtrace:Sim.Goodtrace.warm ->
  ?instance:Engine.Concurrent.instance ->
  engine ->
  Rtlir.Elaborate.t ->
  Faultsim.Workload.t ->
  Faultsim.Fault.t array ->
  ids:int array ->
  Faultsim.Fault.result

(** [run ?jobs engine g w faults] — the cold chunked runner. With
    [jobs > 1] (default 1) the fault list is partitioned into [jobs]
    contiguous chunks simulated by a {!Pool} of worker domains. Verdicts
    and detection cycles are identical to the monolithic run for any
    [jobs] (faulty networks never interact); counters tied to the
    partitioning differ — each worker re-simulates the good network
    ([bn_good], [rtl_good_eval] scale with the partition count) and faulty
    RTL-evaluation sharing is per-partition. For byte-identical reports at
    any [jobs], or for a good-trace warm start, use {!Resilient.run},
    whose batch decomposition is independent of the worker count.

    Execution is "plan, then execute plan": the fault set is decomposed by
    {!Schedule.plan} ([Fixed], granularity [Chunks jobs] — the historical
    contiguous-chunk partition), every chunk is dispatched through
    {!dispatch}, and results merge in plan order. *)
val run :
  ?instrument:bool ->
  ?jobs:int ->
  engine ->
  Rtlir.Elaborate.t ->
  Faultsim.Workload.t ->
  Faultsim.Fault.t array ->
  Faultsim.Fault.result

(** Instantiate a registered circuit and run it on one engine. *)
val run_circuit :
  ?instrument:bool ->
  ?jobs:int ->
  engine ->
  Circuits.Bench_circuit.t ->
  scale:float ->
  Faultsim.Fault.result

(** Visibility dependency graph and the runtime redundancy walk — the
    paper's Algorithm 1 (Section IV-A).

    The VDG mirrors the CFG: {e path decision nodes} carry the selector
    expression ("Evaluate" function), {e path dependency nodes} carry the
    signals and memories a segment reads. Dependency nodes with nothing to
    check are compressed away ("simplify the visibility dependency graph by
    removing empty nodes").

    {b Soundness refinement over the paper's pseudocode.} A signal read by a
    segment or selector may have been written by a {e blocking} assignment
    earlier on the same path; its pre-execution visibility is then
    irrelevant (both executions recompute it from already-checked-equal
    inputs), and the selector cannot be re-evaluated against pre-execution
    state. The walk therefore tracks the blocking-written set along the good
    path: locally-written reads are skipped at dependency nodes, and a
    decision whose selector reads locally-written signals falls back to a
    visibility check of its external reads instead of re-evaluation. Bodies
    of edge-triggered processes contain no blocking writes, so they always
    take the fast evaluation path. *)

open Rtlir

type t = {
  cfg : Cfg.t;
  next : int array;
      (** per node id: successor with empty dependency nodes skipped
          (meaningful for segment nodes only) *)
  interesting : bool array;
      (** per node id: segments that still need a dependency check *)
}

val build : Cfg.t -> t

(** Number of dependency nodes remaining after empty-node removal. *)
val dependency_node_count : t -> int

(** [redundant vdg ~good_choice ~eval_good ~eval_fault ~visible
    ~mem_word_visible] decides whether the faulty execution of the
    behavioral node can be skipped, given the good execution's recorded
    decisions.

    - [good_choice id] is the target index the good execution took at
      decision node [id] (recorded during the good run);
    - [eval_good e] / [eval_fault e] evaluate expression [e] under the good
      / faulty network's values;
    - [visible s] is true when the fault's value of signal [s] differs from
      the good value;
    - [mem_word_visible m addr] is true when the fault's word of memory [m]
      at the (unwrapped) address [addr] differs from the good word —
      memory dependencies are checked {e per word}: the address is
      recomputed from already-checked-equal values, so good and faulty
      networks read the same location.

    Returns [true] (redundant: skip the faulty execution) only if the faulty
    execution provably follows the same path and reads only fault-invisible
    data, hence writes exactly the good values.

    This is the reference walk over boxed values. The concurrent engine
    runs the same traversal allocation-free over the compiled selectors and
    memory sites of {!Sim.Compile.ti}, with the blocking-written set as a
    stamp array over signal ids ({!Engine.Concurrent}). *)
val redundant :
  t ->
  good_choice:(int -> int) ->
  eval_good:(Expr.t -> Bits.t) ->
  eval_fault:(Expr.t -> Bits.t) ->
  visible:(int -> bool) ->
  mem_word_visible:(int -> Bits.t -> bool) ->
  bool

(** Closure compilation of expressions and behavioral nodes — the compiled
    ("Verilator-style") evaluation path used by VFsim and the concurrent
    engines.

    Expressions compile once into nested closures; repeated evaluation then
    skips AST dispatch. Behavioral bodies compile into their CFG form:
    segments become closure sequences, decisions become a compiled selector
    plus a branch chooser. The compiled proc doubles as the runtime carrier
    for Algorithm 1: it records the good execution's decisions and exposes
    the VDG and per-decision fault evaluation hooks. *)

open Rtlir
open Flow

type compiled_expr = Access.reader -> Bits.t

val expr : mem_size:(int -> int) -> Expr.t -> compiled_expr

type t = {
  cfg : Cfg.t;
  vdg : Vdg.t;
  segments : (Access.reader -> Access.writer -> unit) array array;
      (** per CFG node id: compiled simple statements (segments only) *)
  selectors : compiled_expr array;  (** per CFG node id (decisions only) *)
  choosers : (Bits.t -> int) array;  (** per CFG node id (decisions only) *)
}

(** Compile a behavioral body. *)
val proc : mem_size:(int -> int) -> Stmt.t -> t

(** [exec t ?record reader writer] walks the CFG executing segments; when
    [record] is given, the chosen target index of every traversed decision
    node is stored at its node id (the good-path record Algorithm 1 walks
    against). *)
val exec :
  t -> ?record:int array -> Access.reader -> Access.writer -> unit

(** [fault_choice t node_id reader] evaluates the decision's selector under
    a fault reader and returns the chosen target index. *)
val fault_choice : t -> int -> Access.reader -> int

(* --- payload-compiled family: same artifacts over unboxed int64 payloads,
   with widths resolved at compile time (see {!Rtlir.Bitops}) --- *)

type compiled_expr_i = Access.ireader -> int64

val expr_i :
  sig_width:(int -> int) ->
  mem_width:(int -> int) ->
  mem_size:(int -> int) ->
  Expr.t ->
  compiled_expr_i

(** A memory-read site, compiled for the redundancy walk. *)
type site_i = {
  site_mem : int;
  site_size : int;  (** the memory's word count *)
  site_addr : compiled_expr_i;
      (** the address, evaluated under the {e good} reader by the walk *)
  site_reads : int array;  (** signals the address expression reads *)
}

type ti = {
  icfg : Cfg.t;
  ivdg : Vdg.t;
  isegments : (Access.ireader -> Access.iwriter -> unit) array array;
  iselectors : compiled_expr_i array;
  ichoosers : (int64 -> int) array;
      (** label matching is payload equality: case labels share the
          scrutinee's width by design validation *)
  isites : site_i array array;
      (** per CFG node id: a segment's memory-read sites, or a decision's
          selector memory-read sites *)
}

val proc_i :
  sig_width:(int -> int) ->
  mem_width:(int -> int) ->
  mem_size:(int -> int) ->
  Stmt.t ->
  ti

val exec_i :
  ti -> ?record:int array -> Access.ireader -> Access.iwriter -> unit

val fault_choice_i : ti -> int -> Access.ireader -> int

(* The repository benchmark: closed-loop fault campaigns over the paper's
   Table II circuits at full scale (--scale 1.0), Eraser engine, scalar
   lanes.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One caller in one process runs a pass over the workload's circuits,
   waits for every verdict, then starts the next pass, until S seconds
   have been measured. The seed picks each circuit's fault-site sample;
   the stimulus is the circuit's own testbench. Every pass is checked
   against serial-oracle verdicts computed once, before timing, and
   against the counter identities below; broken checks are counted as
   failed operations and make the result incorrect.

   --trace 0 prints the end-to-end metrics of untraced passes. --trace 1
   alternates untraced passes with traced ones that drive the same
   pipeline stage by stage through each layer's public functions, and
   prints the per-layer ledger. The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}. *)

open Faultsim
module Campaign = Harness.Campaign
module Resilient = Harness.Resilient
module Schedule = Harness.Schedule
module Concurrent = Engine.Concurrent
module Jsonl = Harness.Jsonl

let scale = 1.0
let batch_size = 64
let setup_rounds = 50

(* Big enough for any circuit here (the dispatches of the largest record
   about 0.75 M events), so the event count proves the ring never wrapped. *)
let trace_capacity = 1 lsl 21

(* ---- workloads ---- *)

type mode = Cold | Warm of int  (** warm-started resilient runner, jobs *)

type workload = { wname : string; circuits : string list; mode : mode }

let workloads =
  [
    {
      wname = "bn_heavy";
      circuits = [ "riscv_mini"; "sodor"; "sha256_hv" ];
      mode = Cold;
    };
    { wname = "rtl_heavy"; circuits = [ "sha256_c2v" ]; mode = Cold };
    {
      wname = "campaign_warm";
      circuits = [ "conv_acc"; "picorv32"; "fpu" ];
      mode = Warm 1;
    };
  ]

(* ---- the failure ledger ---- *)

type tally = {
  mutable ops : int;  (** checks made: one per fault verdict, one per identity *)
  mutable ops_failed : int;
  mutable faults : int;  (** fault verdicts checked *)
  mutable faults_failed : int;
}

let tally = { ops = 0; ops_failed = 0; faults = 0; faults_failed = 0 }

let check name ok =
  tally.ops <- tally.ops + 1;
  if not ok then begin
    tally.ops_failed <- tally.ops_failed + 1;
    Printf.eprintf "perfbench: broken: %s\n%!" name
  end

let fault_checks name ~n ~bad =
  tally.ops <- tally.ops + n;
  tally.ops_failed <- tally.ops_failed + bad;
  tally.faults <- tally.faults + n;
  tally.faults_failed <- tally.faults_failed + bad;
  if bad > 0 then Printf.eprintf "perfbench: %s: %d of %d faults wrong\n%!" name bad n

(* ---- circuits ---- *)

type case = {
  cname : string;
  graph : Rtlir.Elaborate.t;
  wl : Workload.t;
  faults : Fault.t array;
  fault_cycles : float;  (** nominal faults x stimulus cycles *)
  journal : string;
  oracle : bool array * int array;  (** serial verdicts and detection cycles *)
  mutable reference : int list option;  (** counters of the first pass *)
}

let instantiate ~seed name =
  let module B = Circuits.Bench_circuit in
  let c = Circuits.find name in
  let design = c.B.build () in
  let graph = Rtlir.Elaborate.build design in
  let wl = c.B.workload design ~cycles:(B.cycles_of c ~scale) in
  (graph, wl, Fault.generate ~max_faults:(B.faults_of c ~scale) ~seed design)

(* Set up every circuit [setup_rounds] times, in blocks between host
   reference samples. Returns the median round, raw and host-normalised,
   and the circuits of the last round. *)
let time_setup ~seed w =
  let block = 5 in
  let blocks =
    List.init (setup_rounds / block) (fun _ ->
        let r = Ledger.host_ref () in
        let rounds =
          List.init block (fun _ ->
              let t0 = Ledger.wall () in
              let built = List.map (instantiate ~seed) w.circuits in
              (Ledger.wall () -. t0, built))
        in
        (r, rounds))
  in
  let afters = List.tl (List.map fst blocks) @ [ Ledger.host_ref () ] in
  let normalised =
    List.concat
      (List.map2
         (fun (before, rounds) after ->
           List.map (fun (t, _) -> Ledger.normalise ~before ~after t) rounds)
         blocks afters)
  in
  let rounds = List.concat_map snd blocks in
  ( Ledger.median (List.map fst rounds),
    Ledger.median normalised,
    snd (List.hd (List.rev rounds)) )

(* Serial per-fault oracle, in the simulator's default configuration. *)
let oracle (graph, wl, faults) =
  let r = Baselines.Serial.run ~config:Sim.Simulator.default_config graph wl faults in
  (r.Fault.detected, r.Fault.detection_cycle)

(* Run [f] in a child process and return its result. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let code =
        match f () with
        | v ->
            Marshal.to_channel oc v [];
            close_out oc;
            0
        | exception e ->
            Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v = try Some (Marshal.from_channel ic : 'a) with End_of_file -> None in
      close_in ic;
      match (snd (Unix.waitpid [] pid), v) with
      | Unix.WEXITED 0, Some v -> v
      | _ -> failwith "set-up child process failed")

type prepared = {
  setup_raw : float;  (** median set-up round, seconds *)
  setup_s : float;  (** the same, host-normalised *)
  oracle_s : float;
  cases : case list;
}

(* The set-up rounds and the serial oracle run in a child process, so the
   heap they grow (OCaml 5.1 keeps freed heap resident) is not part of the
   resident set of the timed passes. This process then builds each circuit
   once, untimed. *)
let prepare ~seed ~tmp w =
  let setup_raw, setup_s, oracles, oracle_s =
    in_child (fun () ->
        let raw, norm, built = time_setup ~seed w in
        let t0 = Ledger.wall () in
        let oracles = List.map oracle built in
        (raw, norm, oracles, Ledger.wall () -. t0))
  in
  let cases =
    List.map2
      (fun cname oracle ->
        let graph, wl, faults = instantiate ~seed cname in
        check (cname ^ ": oracle covers every fault")
          (Array.length (fst oracle) = Array.length faults);
        {
          cname;
          graph;
          wl;
          faults;
          fault_cycles =
            float_of_int (Array.length faults) *. float_of_int wl.Workload.cycles;
          journal = Filename.concat tmp (cname ^ ".jsonl");
          oracle;
          reference = None;
        })
      w.circuits oracles
  in
  { setup_raw; setup_s; oracle_s; cases }

(* ---- one campaign call and its checks ---- *)

type outcome = {
  detected : bool array;
  cycles : int array;
  stats : Stats.t;
  summary : Resilient.summary option;
}

let of_result ?summary (r : Fault.result) =
  { detected = r.Fault.detected; cycles = r.Fault.detection_cycle; stats = r.Fault.stats; summary }

let resilient_config ~jobs c =
  {
    Resilient.default_config with
    jobs;
    batch_size;
    warmstart = true;
    journal = Some c.journal;
  }

let run_case mode c =
  match mode with
  | Cold -> of_result (Campaign.run Campaign.Eraser c.graph c.wl c.faults)
  | Warm jobs ->
      let s = Resilient.run ~config:(resilient_config ~jobs c) c.graph c.wl c.faults in
      of_result ~summary:s s.Resilient.result

(* Deterministic engine counters, per-node rows included. *)
let counters (s : Stats.t) =
  [
    s.bn_good;
    s.bn_fault_exec;
    s.bn_skipped_explicit;
    s.bn_skipped_implicit;
    s.rtl_good_eval;
    s.rtl_fault_eval;
    s.good_cycles_skipped;
  ]
  @ List.concat_map
      (fun (r : Stats.proc_row) -> [ r.pr_exec; r.pr_impl; r.pr_expl ])
      (Array.to_list s.per_proc)

let verify ~label c o =
  let name what = Printf.sprintf "%s %s: %s" label c.cname what in
  let od, oc = c.oracle in
  let bad = ref 0 in
  Array.iteri
    (fun i d -> if d <> od.(i) || o.cycles.(i) <> oc.(i) then incr bad)
    o.detected;
  fault_checks (name "verdicts vs serial oracle") ~n:(Array.length od) ~bad:!bad;
  let s = o.stats in
  let rows f = Array.fold_left (fun acc r -> acc + f r) 0 s.Stats.per_proc in
  check (name "sum per_proc exec = bn_fault_exec")
    (rows (fun r -> r.Stats.pr_exec) = s.bn_fault_exec);
  check (name "sum per_proc impl = bn_skipped_implicit")
    (rows (fun r -> r.Stats.pr_impl) = s.bn_skipped_implicit);
  check (name "sum per_proc expl = bn_skipped_explicit")
    (rows (fun r -> r.Stats.pr_expl) = s.bn_skipped_explicit);
  Option.iter
    (fun (sm : Resilient.summary) ->
      check (name "batches_total = batches_resumed + batches_executed")
        (sm.batches_total = sm.batches_resumed + sm.batches_executed);
      check (name "cone_pruned = |pruned_faults|")
        (s.cone_pruned = List.length sm.pruned_faults);
      check (name "no fault abandoned") (sm.failed_faults = []))
    o.summary;
  let k = counters s in
  match c.reference with
  | None -> c.reference <- Some k
  | Some r -> check (name "counters repeat the first pass") (r = k)

(* A campaign call that raised loses every fault it was given. *)
let lost ~label c e =
  Printf.eprintf "perfbench: %s %s raised %s\n%!" label c.cname
    (match e with
    | Resilient.Campaign_error err -> Resilient.error_message err
    | e -> Printexc.to_string e);
  let n = Array.length c.faults in
  fault_checks (label ^ " " ^ c.cname) ~n ~bad:n

(* ---- untraced passes ---- *)

(* One campaign call, with the host reference sampled just before it. *)
type call = { wall_s : float; cpu_s : float; ref_s : float }

type pass = {
  p_calls : call list;  (** one per circuit, in workload order *)
  p_batch_walls : float list;  (** journal wall_s of every batch *)
  p_journal_bytes : int;
}

let pass_wall p = Ledger.sum (List.map (fun c -> c.wall_s) p.p_calls)

let journal_batch_walls path =
  List.filter_map
    (fun line ->
      let j = Jsonl.parse line in
      match Jsonl.member "type" j with
      | Some (Jsonl.String "batch") -> Some (Jsonl.get_float "wall_s" j)
      | _ -> None)
    (Jsonl.read_journal path).Jsonl.complete

let untraced_pass ~label mode cases =
  let p =
    List.fold_left
      (fun p c ->
        let ref_s = Ledger.host_ref () in
        let t0 = Ledger.wall () and c0 = Ledger.cpu () in
        let o = try Ok (run_case mode c) with e -> Error e in
        let call =
          { wall_s = Ledger.wall () -. t0; cpu_s = Ledger.cpu () -. c0; ref_s }
        in
        let walls, bytes =
          match (o, mode) with
          | Error e, _ ->
              lost ~label c e;
              ([], 0)
          | Ok o, Cold ->
              verify ~label c o;
              ([], 0)
          | Ok o, Warm _ ->
              verify ~label c o;
              (journal_batch_walls c.journal, (Unix.stat c.journal).Unix.st_size)
        in
        {
          p_calls = call :: p.p_calls;
          p_batch_walls = walls @ p.p_batch_walls;
          p_journal_bytes = p.p_journal_bytes + bytes;
        })
      { p_calls = []; p_batch_walls = []; p_journal_bytes = 0 }
      cases
  in
  { p with p_calls = List.rev p.p_calls }

(* The resilient runner must give the same verdicts and counters at jobs 1
   and jobs 2: run the other worker count once, outside timing, and hold it
   to the first pass's counters. *)
let counterpart mode cases =
  match mode with
  | Cold -> ()
  | Warm jobs ->
      let other = if jobs = 1 then 2 else 1 in
      let label = Printf.sprintf "jobs %d vs jobs %d" other jobs in
      List.iter
        (fun c ->
          match run_case (Warm other) c with
          | o -> verify ~label c o
          | exception e -> lost ~label c e)
        cases

(* ---- traced passes ----

   The campaign pipeline driven one public call at a time, each call in a
   span named after its layer: instance, then (warm) capture, cone and
   activations, then the plan, then one dispatch per planned batch with
   its warm start. The program's own trace spans are on meanwhile. *)

type traced = {
  t_wall : float;  (** pipeline calls only; trace export excluded *)
  t_spans : Ledger.spans;
  t_self : string -> float;  (** program span self seconds, all circuits *)
  t_events : int;  (** most trace events held after one circuit *)
  t_stats : Stats.t;  (** merged over circuits *)
  t_capture_bytes : int;
  t_snapshots : int;
  t_pruned : int;
  t_batches : int;
}

let pipeline sp mode c =
  let g = c.graph and w = c.wl and faults = c.faults in
  let n = Array.length faults in
  let inst = Ledger.span sp "core.instance" (fun () -> Concurrent.instance g) in
  let warm =
    match mode with
    | Cold -> None
    | Warm _ ->
        let config =
          {
            Concurrent.default_config with
            mode = Campaign.concurrent_mode Campaign.Eraser;
          }
        in
        let trace =
          Ledger.span sp "sim.capture" (fun () ->
              Concurrent.capture ~config ~instance:inst g w)
        in
        Ledger.span sp "cfg.cone" (fun () ->
            let cone = Flow.Cone.build g in
            Some
              {
                Schedule.wi_trace = trace;
                wi_acts = Concurrent.activations ~cone trace g faults;
                wi_pruned = Concurrent.statically_undetectable ~cone g faults;
              })
  in
  let policy, granularity =
    match mode with
    | Cold -> (Schedule.Fixed, Schedule.Chunks 1)
    | Warm _ -> (Schedule.Adaptive, Schedule.Size batch_size)
  in
  let plan =
    Ledger.span sp "harness.plan" (fun () ->
        Schedule.plan ~policy ~granularity ?warm ~design:g ~n ())
  in
  let detected = Array.make n false and cycles = Array.make n (-1) in
  Obs.Trace.enable ~capacity:trace_capacity ();
  let stats =
    Array.fold_left
      (fun acc (b : Schedule.batch) ->
        let ids = b.sb_ids in
        let r =
          Ledger.span sp "core.dispatch" (fun () ->
              Campaign.dispatch ~instrument:true
                ?goodtrace:(Schedule.warm_for plan ids)
                ~instance:inst Campaign.Eraser g w faults ~ids)
        in
        Array.iteri
          (fun j id ->
            detected.(id) <- r.Fault.detected.(j);
            cycles.(id) <- r.Fault.detection_cycle.(j))
          ids;
        Stats.add acc r.Fault.stats)
      (Stats.create ()) plan.sp_batches
  in
  Obs.Trace.disable ();
  ({ detected; cycles; stats; summary = None }, plan)

let traced_pass mode cases =
  (* size the trace ring and register this domain's ring before timing *)
  Obs.Trace.enable ~capacity:trace_capacity ();
  Obs.Trace.instant "perfbench";
  Obs.Trace.disable ();
  let sp = Ledger.spans () in
  let self_tbl = Hashtbl.create 8 in
  let acc =
    {
      t_wall = 0.0;
      t_spans = sp;
      t_self = (fun _ -> 0.0);
      t_events = 0;
      t_stats = Stats.create ();
      t_capture_bytes = 0;
      t_snapshots = 0;
      t_pruned = 0;
      t_batches = 0;
    }
  in
  let acc =
    List.fold_left
      (fun acc c ->
        let t0 = Ledger.wall () in
        let o, plan = pipeline sp mode c in
        let dw = Ledger.wall () -. t0 in
        let events = Obs.Trace.event_count () in
        check ("trace ring held every event of " ^ c.cname)
          (events < trace_capacity);
        let program_spans = Ledger.chrome_spans (Obs.Trace.to_chrome_string ()) in
        check ("trace export held bn_eval or fault_sim_run spans of " ^ c.cname)
          (List.exists
             (fun e -> e.Ledger.name = "bn_eval" || e.name = "fault_sim_run")
             program_spans);
        let self = Ledger.self_times program_spans in
        List.iter
          (fun k ->
            Hashtbl.replace self_tbl k
              (self k +. Option.value ~default:0.0 (Hashtbl.find_opt self_tbl k)))
          [ "bn_eval"; "vdg_walk"; "good_sim"; "fault_sim_run" ];
        verify ~label:"traced" c o;
        let trace = plan.Schedule.sp_trace in
        {
          acc with
          t_wall = acc.t_wall +. dw;
          t_events = max acc.t_events events;
          t_stats = Stats.add acc.t_stats o.stats;
          t_capture_bytes =
            acc.t_capture_bytes
            + Option.fold ~none:0 ~some:(fun t -> t.Sim.Goodtrace.capture_bytes) trace;
          t_snapshots =
            acc.t_snapshots
            + Option.fold ~none:0
                ~some:(fun t -> Array.length t.Sim.Goodtrace.snapshots)
                trace;
          t_pruned = acc.t_pruned + Array.length plan.sp_pruned;
          t_batches = acc.t_batches + Array.length plan.sp_batches;
        })
      acc cases
  in
  (* release the ring: untraced passes run with the heap they would have *)
  Obs.Trace.enable ~capacity:1 ();
  Obs.Trace.disable ();
  check "named layer spans cover >= 95% of traced wall"
    (Ledger.spans_total sp >= 0.95 *. acc.t_wall);
  {
    acc with
    t_self = (fun k -> Option.value ~default:0.0 (Hashtbl.find_opt self_tbl k));
  }

(* ---- the measured loop ---- *)

(* Run [f] until [seconds] have passed since the loop began (at least once). *)
let repeat_for seconds f =
  let deadline = Ledger.wall () +. seconds in
  let rec go acc =
    let acc = f () :: acc in
    if Ledger.wall () < deadline then go acc else List.rev acc
  in
  go []

type metric = string * float * string

(* End-to-end times are host-normalised (see [Ledger.host_ref]): each
   campaign call is bracketed by the host references sampled just before
   and just after it; a circuit's time is its summed call time over its
   summed bracket means, at the reference's nominal speed, and the metric
   sums the workload's circuits. *)
let end_to_end { setup_s; cases; _ } mode seconds : metric list =
  let rss_before = Ledger.rss_mb () in
  let rss_reset = Ledger.reset_peak_rss () in
  let passes =
    repeat_for seconds (fun () -> untraced_pass ~label:"timed" mode cases)
  in
  let closing_ref = Ledger.host_ref () in
  let peak_rss_mb = Ledger.peak_rss_mb () in
  if not rss_reset then
    Printf.eprintf "perfbench: peak RSS covers the whole process\n%!";
  counterpart mode cases;
  let flat = List.concat_map (fun p -> p.p_calls) passes in
  let refs = List.map (fun c -> c.ref_s) flat in
  let afters = List.tl refs @ [ closing_ref ] in
  let ncases = List.length cases in
  let brackets = List.map2 (fun c after -> (c.ref_s +. after) /. 2.0) flat afters in
  let mine i l = List.filteri (fun k _ -> k mod ncases = i) l in
  let per_call f =
    Ledger.host_ref_nominal
    *. Ledger.sum
         (List.init ncases (fun i ->
              Ledger.sum (List.map f (mine i flat)) /. Ledger.sum (mine i brackets)))
  in
  let calls = List.map (fun p -> p.p_calls) passes in
  Printf.printf "passes %d, pass median %.3f s, host reference median %.4f s\n"
    (List.length passes)
    (Ledger.median (List.map pass_wall passes))
    (Ledger.median refs);
  List.iteri
    (fun i c ->
      let row f =
        String.concat " "
          (List.map (fun cs -> Printf.sprintf "%.4f" (f (List.nth cs i))) calls)
      in
      Printf.printf "%s walls: %s\n%s refs: %s\n%s wall/bracket correlation: %.3f\n"
        c.cname
        (row (fun c -> c.wall_s))
        c.cname
        (row (fun c -> c.ref_s))
        c.cname
        (Ledger.correlation (List.map (fun c -> c.wall_s) (mine i flat)) (mine i brackets)))
    cases;
  Printf.printf "closing ref: %.4f\n" closing_ref;
  Printf.printf "resident set before timing: %.1f MB\n" rss_before;
  let campaign_s = per_call (fun c -> c.wall_s) in
  let work = Ledger.sum (List.map (fun c -> c.fault_cycles) cases) in
  [
    ("campaign_s", campaign_s, "s");
    ("fault_cycles_per_s", work /. campaign_s, "fault-cycles/s");
    ("cpu_s", per_call (fun c -> c.cpu_s), "s");
    ("setup_s", setup_s, "s");
    ("peak_rss_mb", peak_rss_mb, "MB");
    ( "verified_frac",
      1.0 -. (float_of_int tally.faults_failed /. float_of_int (max 1 tally.faults)),
      "frac" );
  ]

let per_layer { setup_raw; oracle_s; cases; _ } ~par2 mode seconds : metric list =
  let pairs =
    repeat_for seconds (fun () ->
        let u = untraced_pass ~label:"timed" mode cases in
        (u, traced_pass mode cases))
  in
  counterpart mode cases;
  let us = List.map fst pairs and ts = List.map snd pairs in
  Printf.printf "passes %d untraced + %d traced\n" (List.length us) (List.length ts);
  let med f l = Ledger.median (List.map f l) in
  let span name = med (fun t -> Ledger.span_total t.t_spans name) ts in
  let self name = med (fun t -> t.t_self name) ts in
  let untraced_s = med pass_wall us in
  let host_ref_s =
    Ledger.median (List.concat_map (fun p -> List.map (fun c -> c.ref_s) p.p_calls) us)
  in
  let traced_s = med (fun t -> t.t_wall) ts in
  (* counters are deterministic: every traced pass carries the same *)
  let t = List.hd ts in
  let s = t.t_stats in
  let count name v = (name, float_of_int v, "count") in
  let jobs = match mode with Cold -> 1 | Warm j -> j in
  let warm = mode <> Cold in
  let batch_walls = List.map (fun p -> p.p_batch_walls) us in
  let hit_base = s.bn_skipped_implicit + s.bn_fault_exec in
  [
    ("rtlir.instantiate_s", setup_raw, "s");
    ("core.instance_s", span "core.instance", "s");
    ("core.dispatch_s", span "core.dispatch", "s");
    ("core.bn_s", med (fun t -> t.t_stats.Stats.bn_seconds) ts, "s");
    ("core.bn_time_pct", med (fun t -> Stats.bn_time_pct t.t_stats) ts, "%");
    count "core.bn_fault_exec" s.bn_fault_exec;
    count "core.bn_skip_explicit" s.bn_skipped_explicit;
    count "core.bn_skip_implicit" s.bn_skipped_implicit;
    count "core.bn_good" s.bn_good;
    ( "core.implicit_hit_ratio",
      float_of_int s.bn_skipped_implicit /. float_of_int (max 1 hit_base),
      "ratio" );
    count "core.implicit_hit_base" hit_base;
    count "core.rtl_fault_eval" s.rtl_fault_eval;
    count "core.rtl_good_eval" s.rtl_good_eval;
    ("core.bn_eval_self_s", self "bn_eval", "s");
    ("core.vdg_walk_self_s", self "vdg_walk", "s");
    ("core.good_sim_self_s", self "good_sim", "s");
    ("core.fault_sim_run_self_s", self "fault_sim_run", "s");
    ("sim.capture_s", span "sim.capture", "s");
    count "sim.good_cycles_skipped" s.good_cycles_skipped;
    count "sim.plan_snapshots" t.t_snapshots;
    ("sim.capture_bytes", float_of_int t.t_capture_bytes, "B");
    ("cfg.cone_s", span "cfg.cone", "s");
    count "cfg.pruned_faults" t.t_pruned;
    ("harness.plan_s", span "harness.plan", "s");
    count "harness.batches" t.t_batches;
    ( "harness.journal_bytes",
      med (fun p -> float_of_int p.p_journal_bytes) us,
      "B" );
    ( "harness.batch_s_p50",
      Ledger.median (List.map (Ledger.percentile 50.0) batch_walls),
      "s" );
    ( "harness.batch_s_p90",
      Ledger.median (List.map (Ledger.percentile 90.0) batch_walls),
      "s" );
    count "harness.batch_samples" (List.length (List.hd batch_walls));
    ( "harness.overhead_s",
      (if warm then
         untraced_s
         -. (span "sim.capture" +. span "cfg.cone" +. span "harness.plan")
         -. (med (fun p -> Ledger.sum p.p_batch_walls) us /. float_of_int jobs)
       else 0.0),
      "s" );
    ( "harness.pool_busy_frac",
      (if warm then
         med
           (fun p -> Ledger.sum p.p_batch_walls /. (float_of_int jobs *. pass_wall p))
           us
       else 0.0),
      "frac" );
    ("baselines.oracle_s", oracle_s, "s");
    ("obs.trace_overhead_pct", (traced_s -. untraced_s) /. untraced_s *. 100.0, "%");
    ( "obs.span_coverage_pct",
      med (fun t -> Ledger.spans_total t.t_spans /. t.t_wall *. 100.0) ts,
      "%" );
    count "obs.trace_events" (List.fold_left (fun m t -> max m t.t_events) 0 ts);
    ("host.par2_ratio", par2, "ratio");
    ("host.ref_s", host_ref_s, "s");
    count "host.nproc" (Domain.recommended_domain_count ());
  ]

(* ---- main ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N fault-site sample seed (default 1; held out: 2)");
      ("--seconds", Arg.Set_float seconds, "S seconds of measured passes");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("perfbench: --workload must be one of "
          ^ String.concat ", " (List.map (fun w -> w.wname) workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace is 0 or 1"; exit 2);
  if not (!seconds > 0.0) then (prerr_endline "perfbench: --seconds must be > 0"; exit 2);
  let tmp = Filename.concat ".perfbench_tmp" (string_of_int (Unix.getpid ())) in
  if w.mode <> Cold then begin
    if not (Sys.file_exists ".perfbench_tmp") then Sys.mkdir ".perfbench_tmp" 0o755;
    Sys.mkdir tmp 0o755
  end;
  at_exit (fun () ->
      remove_tree tmp;
      try Sys.rmdir ".perfbench_tmp" with Sys_error _ -> ());
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d circuits=%s\n"
    w.wname !seed !seconds !trace (String.concat "," w.circuits);
  (* first touch of the reference kernel's heap, outside any sample *)
  ignore (Ledger.host_ref ());
  (* before any domain is spawned: OCaml 5.1 forbids fork after that *)
  let p = prepare ~seed:(Int64.of_int !seed) ~tmp w in
  let nproc = Domain.recommended_domain_count () in
  let par2 = Ledger.par2_ratio () in
  Printf.printf "host nproc=%d par2_ratio=%.3f\n%!" nproc par2;
  let metrics =
    if !trace = 0 then end_to_end p w.mode !seconds
    else per_layer p ~par2 w.mode !seconds
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-28s %16.6f %s\n" name v unit) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.ops_failed = 0) tally.ops tally.ops_failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))

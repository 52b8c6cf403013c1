open Faultsim

(* ---- error taxonomy ---- *)

type divergence = {
  div_fault : int;
  div_batch : int;
  engine_detected : bool;
  engine_cycle : int;
  oracle_detected : bool;
  oracle_cycle : int;
}

type campaign_error =
  | Engine_divergence of divergence list
  | Batch_timeout of {
      batch : int;
      ids : int array;
      cycle : int;
      reason : string;
    }
  | Journal_corrupt of string
  | Bad_workload of string
  | Host_io of string

exception Campaign_error of campaign_error

let err e = raise (Campaign_error e)

let error_message = function
  | Engine_divergence ds ->
      Printf.sprintf "engine divergence on %d fault(s): %s" (List.length ds)
        (String.concat ", "
           (List.map (fun d -> string_of_int d.div_fault) ds))
  | Batch_timeout { batch; ids; cycle; reason } ->
      Printf.sprintf
        "batch %d (%d fault(s)) exceeded its watchdog budget at cycle %d \
         (%s) and could not be split further"
        batch (Array.length ids) cycle reason
  | Journal_corrupt msg -> "corrupt journal: " ^ msg
  | Bad_workload msg -> "bad workload: " ^ msg
  | Host_io msg -> "I/O error: " ^ msg

let exit_code = function
  | Engine_divergence _ -> 3
  | Batch_timeout _ -> 4
  | Journal_corrupt _ -> 5
  | Bad_workload _ -> 6
  | Host_io _ -> 9

(* ---- host file checks ---- *)

let io_error fmt = Printf.ksprintf (fun msg -> err (Host_io msg)) fmt

let check_writable_dir ~what dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    io_error "%s: %s is not an existing directory" what dir;
  try Unix.access dir [ Unix.W_OK; Unix.X_OK ]
  with Unix.Unix_error (e, _, _) ->
    io_error "%s: directory %s: %s" what dir (Unix.error_message e)

let check_output_path path =
  check_writable_dir ~what:path (Filename.dirname path)

(* The repro directory is created (one level, like [mkdir]) before any
   batch runs, so an unusable path fails the campaign up front instead of
   failing every shrink inside a batch. *)
let prepare_repro_dir dir =
  if not (Sys.file_exists dir) then (
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (e, _, _) ->
      io_error "cannot create repro directory %s: %s" dir
        (Unix.error_message e));
  check_writable_dir ~what:"repro directory" dir

(* ---- configuration ---- *)

type config = {
  engine : Campaign.engine;
  jobs : int;
  batch_size : int;
  max_batch_seconds : float option;
  max_batch_cycles : int option;
  max_retries : int;
  oracle_sample : float;
  sample_seed : int64;
  journal : string option;
  resume : bool;
  quarantine : bool;
  inject_divergence : int option;
  progress : float option;
  supervise : bool;
  repro_dir : string option;
  repro_meta : (string * float) option;
  warmstart : bool;
  capture : Sim.Goodtrace.t option;
  capture_mem_limit : int option;
}

let default_config =
  {
    engine = Campaign.Eraser;
    jobs = 1;
    batch_size = 64;
    max_batch_seconds = None;
    max_batch_cycles = None;
    max_retries = 2;
    oracle_sample = 0.0;
    sample_seed = 0x5EED_CAFEL;
    journal = None;
    resume = false;
    quarantine = true;
    inject_divergence = None;
    progress = None;
    supervise = false;
    repro_dir = None;
    repro_meta = None;
    warmstart = false;
    capture = None;
    capture_mem_limit = None;
  }

type summary = {
  result : Fault.result;
  batches_total : int;
  batches_resumed : int;
  batches_executed : int;
  retries : int;
  restarts : int;
  oracle_checked : int;
  divergences : divergence list;
  quarantined : int list;
  failed_faults : int list;
  pruned_faults : int list;
      (* fault ids the cone analysis proved statically undetectable;
         reported undetected without being simulated *)
  repros : string list;
  capture_bytes : int;
}

(* ---- journal records ---- *)

type batch_outcome = {
  b_index : int;
  b_ids : int array;
  b_detected : bool array;
  b_cycles : int array;
  b_stats : Stats.t;
  b_wall : float;
  b_oracle_checked : bool;
  b_divergences : divergence list;
  b_failed : int array;
      (* fault ids abandoned by supervision (reported undetected) *)
  b_repros : string list;  (* repro files emitted for this batch *)
}

let header_json ~design_name ~policy cfg (w : Workload.t) nfaults =
  Jsonl.Obj
    ([
       ("type", Jsonl.String "header");
       ("version", Jsonl.Int 1);
       ("design", Jsonl.String design_name);
       ("engine", Jsonl.String (Campaign.engine_name cfg.engine));
       ("cycles", Jsonl.Int w.Workload.cycles);
       ("clock", Jsonl.Int w.Workload.clock);
       ("faults", Jsonl.Int nfaults);
       ("batch_size", Jsonl.Int cfg.batch_size);
       ("oracle_sample", Jsonl.Float cfg.oracle_sample);
       ("sample_seed", Jsonl.String (Int64.to_string cfg.sample_seed));
     ]
    (* only present on warm campaigns: the batch decomposition is
       planner-ordered there, so a warm journal is incompatible with a
       cold campaign's decomposition (and vice versa). [run] reads the
       flag back from an existing journal on resume and adopts it, so a
       resume continues in the journal's own regime regardless of the
       resuming invocation's flags. The policy is recorded, not adopted:
       it follows from the regime, so a header naming any other policy
       fails the exact header comparison.
       Cold journals keep their historical byte format. *)
    @
    if cfg.warmstart then
      [
        ("warmstart", Jsonl.Bool true);
        ("schedule", Jsonl.String (Schedule.policy_name policy));
      ]
    else [])

(* Journals written while the engine had a lane-packed mode carry a
   ["lanes"] header member. That mode never changed the batch
   decomposition or any verdict, so the member is dropped before a header
   is adopted or compared, and such journals resume like scalar ones. *)
let parse_header line =
  match Jsonl.parse line with
  | Jsonl.Obj kvs -> Jsonl.Obj (List.filter (fun (k, _) -> k <> "lanes") kvs)
  | j -> j

let stats_to_json (s : Stats.t) =
  Jsonl.Obj
    ([
       ("bn_good", Jsonl.Int s.Stats.bn_good);
       ("bn_fault_exec", Jsonl.Int s.Stats.bn_fault_exec);
       ("bn_skipped_explicit", Jsonl.Int s.Stats.bn_skipped_explicit);
       ("bn_skipped_implicit", Jsonl.Int s.Stats.bn_skipped_implicit);
       ("rtl_good_eval", Jsonl.Int s.Stats.rtl_good_eval);
       ("rtl_fault_eval", Jsonl.Int s.Stats.rtl_fault_eval);
     ]
    (* warm-started batches only, so cold journals keep their historical
       byte format *)
    @
    if s.Stats.good_cycles_skipped = 0 then []
    else [ ("good_cycles_skipped", Jsonl.Int s.Stats.good_cycles_skipped) ])

let stats_of_json j =
  let s = Stats.create () in
  s.Stats.bn_good <- Jsonl.get_int "bn_good" j;
  s.Stats.bn_fault_exec <- Jsonl.get_int "bn_fault_exec" j;
  s.Stats.bn_skipped_explicit <- Jsonl.get_int "bn_skipped_explicit" j;
  s.Stats.bn_skipped_implicit <- Jsonl.get_int "bn_skipped_implicit" j;
  s.Stats.rtl_good_eval <- Jsonl.get_int "rtl_good_eval" j;
  s.Stats.rtl_fault_eval <- Jsonl.get_int "rtl_fault_eval" j;
  (match Jsonl.member "good_cycles_skipped" j with
  | Some (Jsonl.Int k) -> s.Stats.good_cycles_skipped <- k
  | _ -> ());
  s

let divergence_to_json d =
  Jsonl.Obj
    [
      ("fault", Jsonl.Int d.div_fault);
      ("batch", Jsonl.Int d.div_batch);
      ("engine_detected", Jsonl.Bool d.engine_detected);
      ("engine_cycle", Jsonl.Int d.engine_cycle);
      ("oracle_detected", Jsonl.Bool d.oracle_detected);
      ("oracle_cycle", Jsonl.Int d.oracle_cycle);
    ]

let divergence_of_json j =
  {
    div_fault = Jsonl.get_int "fault" j;
    div_batch = Jsonl.get_int "batch" j;
    engine_detected = Jsonl.get_bool "engine_detected" j;
    engine_cycle = Jsonl.get_int "engine_cycle" j;
    oracle_detected = Jsonl.get_bool "oracle_detected" j;
    oracle_cycle = Jsonl.get_int "oracle_cycle" j;
  }

let batch_to_json b =
  Jsonl.Obj
    ([
       ("type", Jsonl.String "batch");
       ("index", Jsonl.Int b.b_index);
       ( "ids",
         Jsonl.List (Array.to_list (Array.map (fun i -> Jsonl.Int i) b.b_ids))
       );
       ( "detected",
         Jsonl.List
           (Array.to_list (Array.map (fun d -> Jsonl.Bool d) b.b_detected)) );
       ( "cycles",
         Jsonl.List
           (Array.to_list (Array.map (fun c -> Jsonl.Int c) b.b_cycles)) );
       ("oracle_checked", Jsonl.Bool b.b_oracle_checked);
       ( "divergences",
         Jsonl.List (List.map divergence_to_json b.b_divergences) );
       ("stats", stats_to_json b.b_stats);
       ("wall_s", Jsonl.Float b.b_wall);
     ]
    (* only present when supervision abandoned or shrank something, so
       unsupervised journals keep their historical byte format *)
    @ (if Array.length b.b_failed = 0 then []
       else
         [
           ( "failed",
             Jsonl.List
               (Array.to_list (Array.map (fun i -> Jsonl.Int i) b.b_failed))
           );
         ])
    @
    if b.b_repros = [] then []
    else [ ("repros", Jsonl.List (List.map (fun r -> Jsonl.String r) b.b_repros)) ]
    )

let batch_of_json j =
  if Jsonl.get_string "type" j <> "batch" then
    raise (Jsonl.Parse_error "record is not a batch");
  {
    b_index = Jsonl.get_int "index" j;
    b_ids = Array.of_list (List.map Jsonl.to_int (Jsonl.get_list "ids" j));
    b_detected =
      Array.of_list (List.map Jsonl.to_bool (Jsonl.get_list "detected" j));
    b_cycles =
      Array.of_list (List.map Jsonl.to_int (Jsonl.get_list "cycles" j));
    b_oracle_checked = Jsonl.get_bool "oracle_checked" j;
    b_divergences =
      List.map divergence_of_json (Jsonl.get_list "divergences" j);
    b_stats =
      (match Jsonl.member "stats" j with
      | Some s -> stats_of_json s
      | None -> raise (Jsonl.Parse_error "missing field \"stats\""));
    b_wall = Jsonl.get_float "wall_s" j;
    b_failed =
      (match Jsonl.member "failed" j with
      | Some (Jsonl.List l) -> Array.of_list (List.map Jsonl.to_int l)
      | Some _ -> raise (Jsonl.Parse_error "non-array field \"failed\"")
      | None -> [||]);
    b_repros =
      (match Jsonl.member "repros" j with
      | Some (Jsonl.List l) ->
          List.map
            (function
              | Jsonl.String s -> s
              | _ -> raise (Jsonl.Parse_error "non-string repro entry"))
            l
      | Some _ -> raise (Jsonl.Parse_error "non-array field \"repros\"")
      | None -> []);
  }

(* ---- journal I/O ---- *)

(* What a resume recovers from a journal: the completed batch outcomes,
   the retry/restart events recorded for those batches (so a resumed
   summary counts the whole campaign, not just this invocation), and the
   byte length of the valid prefix. Everything past [clean_bytes] — a torn
   tail or an unparseable final record — must be truncated away before
   appending, or the next record lands mid-garbage and the journal is
   corrupt on the second resume. *)
type replay = {
  rp_outcomes : batch_outcome list;
  rp_retries : int;
  rp_restarts : int;
  rp_clean_bytes : int;
}

let empty_replay =
  { rp_outcomes = []; rp_retries = 0; rp_restarts = 0; rp_clean_bytes = 0 }

(* Replay a journal: validate the header against the campaign at hand and
   collect the completed batch records. A torn final line and an
   unparseable final record (the crash window the journal exists to
   survive) are dropped; any other malformed line or a parameter mismatch
   is a {!Journal_corrupt} error. [expected_pruned] is the
   [{"type":"pruned",...}] record this campaign would write (None when it
   prunes nothing): a journaled pruned record must match it exactly — the
   cone analysis is a deterministic function of the design, so a mismatch
   means the journal belongs to a different campaign. [expected_plan] is
   the [{"type":"plan",...}] record likewise: the planner is
   deterministic, so the journaled plan must equal the one this campaign
   recomputed (batch id membership is validated per batch record). *)
let load_journal path ~expected_header ~expected_pruned ~expected_plan
    ~expected_ids =
  let { Jsonl.complete; torn = _ } = Jsonl.read_journal path in
  match complete with
  | [] -> empty_replay
  | header_line :: records ->
      let header =
        try parse_header header_line
        with Jsonl.Parse_error m ->
          err (Journal_corrupt (Printf.sprintf "unreadable header (%s)" m))
      in
      if header <> expected_header then
        err
          (Journal_corrupt
             (Printf.sprintf
                "parameter mismatch: journal was recorded by %s but this \
                 campaign is %s"
                (Jsonl.to_string header)
                (Jsonl.to_string expected_header)));
      let nbatches = Array.length expected_ids in
      let seen = Hashtbl.create 16 in
      let total = List.length records in
      let outcomes = ref [] in
      let retry_events = ref [] in
      (* The valid prefix ends at the last completed batch record: retry
         events and heartbeats past it belong to a batch whose record never
         landed — re-execution regenerates them, so resume truncates there
         rather than double-journal them. *)
      let offset = ref (String.length header_line + 1) in
      let clean = ref !offset in
      List.iteri
        (fun i line ->
          let last = i = total - 1 in
          let record_no = i + 1 in
          offset := !offset + String.length line + 1;
          match Jsonl.parse line with
          | exception Jsonl.Parse_error m ->
              (* mid-line crash can only tear the final record *)
              if not last then
                err
                  (Journal_corrupt
                     (Printf.sprintf "record %d unreadable (%s)" record_no m))
          | j when
              (match Jsonl.member "type" j with
              | Some (Jsonl.String "heartbeat") -> true
              | _ -> false) ->
              (* progress heartbeats are informational — replay ignores them *)
              ()
          | j when
              (match Jsonl.member "type" j with
              | Some (Jsonl.String "pruned") -> true
              | _ -> false) ->
              (* the statically-undetectable verdicts journaled right after
                 the header; replay only validates them (the resuming
                 campaign recomputes the same set from the design) *)
              if Some j <> expected_pruned then
                err
                  (Journal_corrupt
                     (Printf.sprintf
                        "record %d: pruned-fault record does not match this \
                         campaign's cone analysis"
                        record_no))
          | j when
              (match Jsonl.member "type" j with
              | Some (Jsonl.String "plan") -> true
              | _ -> false) ->
              (* the schedule plan journaled right after the header; replay
                 only validates it (planning is deterministic, so the
                 resuming campaign recomputes the identical plan) *)
              if Some j <> expected_plan then
                err
                  (Journal_corrupt
                     (Printf.sprintf
                        "record %d: plan record does not match this \
                         campaign's schedule"
                        record_no))
          | j when
              (match Jsonl.member "type" j with
              | Some (Jsonl.String "retry") -> true
              | _ -> false) -> (
              match (Jsonl.member "batch" j, Jsonl.member "kind" j) with
              | Some (Jsonl.Int b), Some (Jsonl.String k) ->
                  retry_events := (b, k) :: !retry_events
              | _ ->
                  if not last then
                    err
                      (Journal_corrupt
                         (Printf.sprintf "record %d: malformed retry record"
                            record_no)))
          | j ->
          match batch_of_json j with
          | exception Jsonl.Parse_error m ->
              if not last then
                err
                  (Journal_corrupt
                     (Printf.sprintf "record %d unreadable (%s)" record_no m))
          | b ->
              if b.b_index < 0 || b.b_index >= nbatches then
                err
                  (Journal_corrupt
                     (Printf.sprintf "record %d: batch index %d out of range"
                        record_no b.b_index));
              if Hashtbl.mem seen b.b_index then
                err
                  (Journal_corrupt
                     (Printf.sprintf "record %d: duplicate batch %d" record_no
                        b.b_index));
              if b.b_ids <> expected_ids.(b.b_index) then
                err
                  (Journal_corrupt
                     (Printf.sprintf
                        "record %d: fault ids of batch %d do not match the \
                         campaign's decomposition"
                        record_no b.b_index));
              if
                Array.length b.b_detected <> Array.length b.b_ids
                || Array.length b.b_cycles <> Array.length b.b_ids
              then
                err
                  (Journal_corrupt
                     (Printf.sprintf "record %d: verdict arrays truncated"
                        record_no));
              Hashtbl.replace seen b.b_index ();
              outcomes := b :: !outcomes;
              clean := !offset)
        records;
      (* count only events whose batch record landed: the rest are being
         truncated away and will be regenerated *)
      let rp_retries = ref 0 and rp_restarts = ref 0 in
      List.iter
        (fun (b, k) ->
          if Hashtbl.mem seen b then
            match k with
            | "split" -> incr rp_retries
            | "restart" -> incr rp_restarts
            | _ -> ())
        !retry_events;
      {
        rp_outcomes = List.rev !outcomes;
        rp_retries = !rp_retries;
        rp_restarts = !rp_restarts;
        rp_clean_bytes = !clean;
      }

let append_record ?chaos_batch oc json =
  let line = Jsonl.to_string json in
  let torn =
    match chaos_batch with
    | Some b when Chaos.active () -> Chaos.torn_write ~batch:b line
    | _ -> None
  in
  match torn with
  | Some k ->
      (* simulated crash: leave the record torn mid-write and die *)
      output_string oc (String.sub line 0 k);
      flush oc;
      raise (Chaos.Killed "chaos: journal write torn mid-record")
  | None ->
      output_string oc line;
      output_char oc '\n';
      flush oc

(* ---- crash-safe file writes ---- *)

let write_atomic path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try f oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

(* ---- the runner ---- *)

let renumber faults ids =
  Array.mapi (fun i id -> { faults.(id) with Fault.fid = i }) ids

let index_of ids x =
  let found = ref None in
  Array.iteri (fun i id -> if id = x then found := Some i) ids;
  !found

let run ?(config = default_config) (g : Rtlir.Elaborate.t) (w : Workload.t)
    faults =
  let t0 = Stats.now () in
  if config.batch_size < 1 then
    err
      (Bad_workload
         (Printf.sprintf "batch size must be positive, got %d"
            config.batch_size));
  if config.jobs < 1 then
    err
      (Bad_workload
         (Printf.sprintf "jobs must be positive, got %d" config.jobs));
  if config.max_retries < 0 then
    err
      (Bad_workload
         (Printf.sprintf "max retries must be non-negative, got %d"
            config.max_retries));
  if config.oracle_sample < 0.0 || config.oracle_sample > 1.0 then
    err
      (Bad_workload
         (Printf.sprintf "oracle sampling rate must be within [0, 1], got %g"
            config.oracle_sample));
  if w.Workload.cycles < 0 then
    err
      (Bad_workload
         (Printf.sprintf "negative cycle count %d" w.Workload.cycles));
  Option.iter check_output_path config.journal;
  Option.iter prepare_repro_dir config.repro_dir;
  (* Resume adopts the journal's own regime: warm and cold campaigns use
     different batch decompositions (planner-ordered vs contiguous), so
     the journal records a ["warmstart"] header field and a resume must
     continue in the regime the journal was written under — re-capturing
     the good trace even when the resuming invocation's flags differ, and
     running cold for a cold journal even when they don't. Only that field
     is adopted; every other header parameter, the ["schedule"] policy
     included, is still validated strictly by [load_journal]. An
     unreadable header falls through untouched and fails there with the
     proper error. *)
  let config =
    match config.journal with
    | Some path when config.resume && Sys.file_exists path -> (
        match (Jsonl.read_journal path).Jsonl.complete with
        | header_line :: _ -> (
            match parse_header header_line with
            | exception Jsonl.Parse_error _ -> config
            | j ->
                let warmstart =
                  match Jsonl.member "warmstart" j with
                  | Some (Jsonl.Bool b) -> b
                  | _ -> false
                in
                { config with warmstart })
        | [] -> config)
    | _ -> config
  in
  let n = Array.length faults in
  (* Per-worker engine instance: the compiled design is immutable once
     built, but each worker gets its own so instances are never shared
     across domains, and reuse across a worker's batches amortises
     compilation. Each slot is touched only by its owning worker (slot 0 by
     the jobs = 1 serial loop; the coordinator borrows it sequentially for
     the good-trace capture, before the pool exists). *)
  let instances = Array.make config.jobs None in
  let instance_for worker =
    match instances.(worker) with
    | Some inst -> inst
    | None ->
        let inst = Engine.Concurrent.instance g in
        instances.(worker) <- Some inst;
        inst
  in
  (* Good-trace warm start: the coordinator captures the good network once
     (before any worker starts — the finished trace is immutable and
     shared read-only; a pre-captured trace supplied via [config.capture]
     is reused instead, the bench sweeps' one-capture-many-runs seam) and
     computes each fault's activation window and the cone's
     statically-undetectable set. Pruning is disabled under
     [inject_divergence] so the injected fault is guaranteed to execute.
     Serial engines have no replay seam and ignore the flag. Everything
     else — ordering, batch decomposition, snapshot placement, warm-start
     cycles — is the planner's job. *)
  let warm_input =
    match config.engine with
    | Campaign.Ifsim | Campaign.Vfsim -> None
    | e when config.warmstart && n > 0 ->
        let trace =
          match config.capture with
          | Some t -> t
          | None -> (
              let cc =
                {
                  Engine.Concurrent.default_config with
                  mode = Campaign.concurrent_mode e;
                }
              in
              try
                Engine.Concurrent.capture ~config:cc
                  ~instance:(instance_for 0) g w
              with Workload.Invalid_workload msg -> err (Bad_workload msg))
        in
        let cone = Flow.Cone.build g in
        let acts = Engine.Concurrent.activations ~cone trace g faults in
        let pruned =
          if config.inject_divergence = None then
            Engine.Concurrent.statically_undetectable ~cone g faults
          else Array.make n false
        in
        Some { Schedule.wi_trace = trace; wi_acts = acts; wi_pruned = pruned }
    | _ -> None
  in
  let policy =
    match warm_input with
    | Some _ -> Schedule.Adaptive
    | None -> Schedule.Fixed
  in
  let plan =
    Schedule.plan ~policy ~granularity:(Schedule.Size config.batch_size)
      ?capture_mem_limit:config.capture_mem_limit ?warm:warm_input ~design:g
      ~n ()
  in
  let npruned = Array.length plan.Schedule.sp_pruned in
  let nlive = n - npruned in
  if npruned > 0 then Obs.Metrics.add "cone.pruned" npruned;
  let batches = plan.Schedule.sp_batches in
  let nbatches = Array.length batches in
  let expected_ids = Array.map (fun b -> b.Schedule.sb_ids) batches in
  let pruned_record =
    if npruned = 0 then None
    else
      Some
        (Jsonl.Obj
           [
             ("type", Jsonl.String "pruned");
             ( "ids",
               Jsonl.List
                 (Array.to_list
                    (Array.map (fun i -> Jsonl.Int i) plan.Schedule.sp_pruned))
             );
           ])
  in
  (* The plan itself is journaled on warm campaigns (cold journals keep
     their historical byte format — a cold plan is the trivial contiguous
     one and carries no information the header lacks). *)
  let plan_record =
    match warm_input with
    | Some _ -> Some (Schedule.to_json plan)
    | None -> None
  in
  let design_name = g.Rtlir.Elaborate.design.Rtlir.Design.dname in
  let expected_header =
    header_json ~design_name ~policy:plan.Schedule.sp_policy config w n
  in
  let replay =
    match config.journal with
    | Some path when config.resume && Sys.file_exists path ->
        load_journal path ~expected_header ~expected_pruned:pruned_record
          ~expected_plan:plan_record ~expected_ids
    | _ -> empty_replay
  in
  let resumed = replay.rp_outcomes in
  let outcomes = Array.make nbatches None in
  List.iter (fun b -> outcomes.(b.b_index) <- Some b) resumed;
  let jout =
    match config.journal with
    | None -> None
    | Some path ->
        if resumed = [] then begin
          (* fresh journal: truncate any stale file and write the header,
             followed by the statically-pruned verdicts when there are any *)
          let oc = open_out path in
          append_record oc expected_header;
          Option.iter (append_record oc) pruned_record;
          Option.iter (append_record oc) plan_record;
          Some oc
        end
        else begin
          (* Drop the crashed suffix (a torn line, an unreadable final
             record, orphaned retry events) before appending: writing after
             torn bytes would corrupt the journal for the *next* resume. *)
          let len = (Unix.stat path).Unix.st_size in
          if replay.rp_clean_bytes < len then begin
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> Unix.ftruncate fd replay.rp_clean_bytes)
          end;
          Some (open_out_gen [ Open_append; Open_wronly ] 0o644 path)
        end
  in
  (* serial per-fault oracle over a fault-id subset *)
  let serial_sub ids =
    try Baselines.Serial.ifsim g w (renumber faults ids)
    with Workload.Invalid_workload msg -> err (Bad_workload msg)
  in
  (* run the configured engine over [ids] with an explicit workload (the
     budget-wrapped one for batch execution, a narrowed window for shrinker
     replays), through the one shared {!Campaign.dispatch} point; [probe]
     reaches the concurrent engine only. Warm starts are the plan's — any
     subset of a batch gets the latest snapshot at or before its own
     earliest activation — and apply only at the captured workload length:
     the shrinker's narrowed windows run cold. *)
  let engine_with ?probe ~worker wk ids =
    let cc, inst =
      match config.engine with
      | Campaign.Ifsim | Campaign.Vfsim -> (None, None)
      | e ->
          let corrupt_verdict =
            match config.inject_divergence with
            | Some f -> index_of ids f
            | None -> None
          in
          ( Some
              {
                Engine.Concurrent.default_config with
                mode = Campaign.concurrent_mode e;
                corrupt_verdict;
              },
            Some (instance_for worker) )
    in
    let goodtrace =
      if wk.Workload.cycles = w.Workload.cycles then
        Schedule.warm_for plan ids
      else None
    in
    Campaign.dispatch ?config:cc ?probe ?goodtrace ?instance:inst
      config.engine g wk faults ~ids
  in
  (* budget- and chaos-free engine entry for the shrinker: replays must be
     pure functions of (ids, cycles) *)
  let engine_raw ?probe ?cycles ~worker ids =
    let wk =
      match cycles with None -> w | Some c -> { w with Workload.cycles = c }
    in
    engine_with ?probe ~worker wk ids
  in
  let engine_on ~worker ~batch ids =
    let deadline =
      Option.map (fun s -> Stats.now () +. s) config.max_batch_seconds
    in
    let wb =
      Workload.with_budget ?max_cycles:config.max_batch_cycles ?deadline w
    in
    let wb =
      (* chaos: stall the first drive call past the deadline, once per
         batch, so the watchdog (not the chaos harness) kills the batch *)
      if Chaos.active () && Chaos.stall ~batch then
        let drive c =
          if c = 0 then
            Unix.sleepf
              (match config.max_batch_seconds with
              | Some s -> (2.0 *. s) +. 0.01
              | None -> 0.05);
          wb.Workload.drive c
        in
        { wb with Workload.drive }
      else wb
    in
    engine_with ~worker wb ids
  in
  let retries = Atomic.make 0 in
  let restarts = Atomic.make 0 in
  let ids_json ids =
    Jsonl.List (Array.to_list (Array.map (fun i -> Jsonl.Int i) ids))
  in
  let split_event b ids cycle reason =
    Jsonl.Obj
      [
        ("type", Jsonl.String "retry");
        ("kind", Jsonl.String "split");
        ("batch", Jsonl.Int b);
        ("ids", ids_json ids);
        ("cycle", Jsonl.Int cycle);
        ("reason", Jsonl.String reason);
      ]
  in
  let restart_event b attempt error =
    Jsonl.Obj
      [
        ("type", Jsonl.String "retry");
        ("kind", Jsonl.String "restart");
        ("batch", Jsonl.Int b);
        ("attempt", Jsonl.Int attempt);
        ("error", Jsonl.String error);
      ]
  in
  let quarantine_event b ids =
    Jsonl.Obj
      [
        ("type", Jsonl.String "retry");
        ("kind", Jsonl.String "quarantine");
        ("batch", Jsonl.Int b);
        ("ids", ids_json ids);
      ]
  in
  (* Errors supervision must never swallow: structured campaign failures,
     the chaos harness's simulated crash, and pool teardown. *)
  let fatal = function
    | Campaign_error _ | Chaos.Killed _ | Pool.Shutdown -> true
    | _ -> false
  in
  (* Per-fault quarantine, the supervisor's last resort once halving and
     restarts are exhausted: each fault runs alone with a fresh budget, and
     a fault that still fails is abandoned — reported undetected and listed
     in [b_failed] — instead of looping or aborting the campaign. *)
  let quarantine_pieces ~worker ~events b_index ids =
    events := quarantine_event b_index ids :: !events;
    Array.to_list (Schedule.singletons ids)
    |> List.map (fun piece ->
           match engine_on ~worker ~batch:b_index piece with
           | r -> (piece, Some r)
           | exception Workload.Budget_exceeded _ -> (piece, None)
           | exception Workload.Invalid_workload msg -> err (Bad_workload msg)
           | exception e when not (fatal e) ->
               instances.(worker) <- None;
               (piece, None))
  in
  (* Run one batch under the watchdog. A budget trip refines the plan:
     {!Schedule.halve} splits the batch into its two order-preserving
     halves, each retried with a fresh budget (and, being a smaller fault
     set, a warm start at or past the parent's), down to unsplittable
     single-fault batches or [max_retries] split generations — whichever
     comes first — then reports a structured timeout (or, supervised,
     falls back to per-fault quarantine, the singleton refinement). A
     crash inside the engine discards the worker's instance so the retry
     runs on a freshly built one. *)
  let rec exec_pieces ~worker ~events b_index depth ids =
    match engine_on ~worker ~batch:b_index ids with
    | r -> [ (ids, Some r) ]
    | exception Workload.Budget_exceeded { cycle; reason } -> (
        match Schedule.halve ids with
        | Some (left, right) when depth < config.max_retries ->
            Atomic.incr retries;
            events := split_event b_index ids cycle reason :: !events;
            exec_pieces ~worker ~events b_index (depth + 1) left
            @ exec_pieces ~worker ~events b_index (depth + 1) right
        | _ ->
            if config.supervise then
              quarantine_pieces ~worker ~events b_index ids
            else err (Batch_timeout { batch = b_index; ids; cycle; reason }))
    | exception Workload.Invalid_workload msg -> err (Bad_workload msg)
    | exception e when config.supervise && not (fatal e) ->
        instances.(worker) <- None;
        Atomic.incr restarts;
        events := restart_event b_index depth (Printexc.to_string e) :: !events;
        if depth < config.max_retries then
          exec_pieces ~worker ~events b_index (depth + 1) ids
        else quarantine_pieces ~worker ~events b_index ids
  in
  let oracle_sampled b_index =
    config.oracle_sample > 0.0
    && (config.oracle_sample >= 1.0
       ||
       let rng =
         Rng.create
           (Int64.logxor config.sample_seed
              (Int64.of_int ((b_index + 1) * 0x9E3779B9)))
       in
       Rng.int rng 1_000_000
       < int_of_float (config.oracle_sample *. 1_000_000.))
  in
  (* ---- shrinker support ---- *)
  let nout = Array.length g.Rtlir.Elaborate.outputs in
  let out_name i =
    Rtlir.Design.signal_name g.Rtlir.Elaborate.design
      g.Rtlir.Elaborate.outputs.(i)
  in
  (* Expected (oracle-side) output-port values of one faulty network at
     cycle [at] over window [cycles] — a lone boxed-Bytecode simulator, the
     same configuration the serial oracle pins. *)
  let oracle_outputs fault_id ~cycles ~at =
    let f = faults.(fault_id) in
    let sconfig =
      {
        Sim.Simulator.eval = Sim.Simulator.Bytecode;
        scheduler = Sim.Simulator.Fifo;
        repr = Sim.Simulator.Boxed;
      }
    in
    let force =
      match f.Fault.stuck with
      | Fault.Stuck_at_0 -> Some (f.Fault.signal, f.Fault.bit, false)
      | Fault.Stuck_at_1 -> Some (f.Fault.signal, f.Fault.bit, true)
      | Fault.Flip_at _ -> None
    in
    let sim = Sim.Simulator.create ~config:sconfig ?force g in
    let on_cycle_start cyc =
      match f.Fault.stuck with
      | Fault.Flip_at at when at = cyc ->
          Sim.Simulator.flip_bit sim f.Fault.signal f.Fault.bit
      | _ -> ()
    in
    let wc =
      Workload.checked
        ~num_signals:(Rtlir.Design.num_signals g.Rtlir.Elaborate.design)
        { w with Workload.cycles }
    in
    let vals = Array.make nout "" in
    Workload.run ~on_cycle_start wc
      ~set_input:(Sim.Simulator.set_input sim)
      ~step:(fun () -> Sim.Simulator.step sim)
      ~observe:(fun c ->
        if c = at then begin
          Array.iteri
            (fun i b -> vals.(i) <- Rtlir.Bits.to_string b)
            (Sim.Simulator.outputs sim);
          false
        end
        else true);
    vals
  in
  (* Observed (engine-side) output-port values for [fault_id] inside the
     co-batched set [ids] at cycle [at], via the concurrent engine's probe.
     [None] for serial engines, which have no probe seam. *)
  let engine_outputs ~worker ids fault_id ~cycles ~at =
    match config.engine with
    | Campaign.Ifsim | Campaign.Vfsim -> None
    | _ ->
        let k = match index_of ids fault_id with Some k -> k | None -> 0 in
        let vals = Array.make nout "" in
        let probe c view _mem =
          if c = at then
            for i = 0 to nout - 1 do
              vals.(i) <-
                Rtlir.Bits.to_string (view k g.Rtlir.Elaborate.outputs.(i))
            done
        in
        ignore (engine_raw ~probe ~cycles ~worker ids);
        Some vals
  in
  (* Shrink one confirmed divergence to a minimal reproducer and write the
     [repro-<fault>.json] file. [None] when the divergence does not
     reproduce from the batch starting point (flake) or no repro dir is
     configured. *)
  let shrink_one ~worker ids (d : divergence) =
    match config.repro_dir with
    | None -> None
    | Some dir ->
        let run_engine ~ids ~cycles = engine_raw ~cycles ~worker ids in
        let run_oracle ~id ~cycles =
          let r =
            try
              Baselines.Serial.ifsim g
                { w with Workload.cycles }
                (renumber faults [| id |])
            with Workload.Invalid_workload msg -> err (Bad_workload msg)
          in
          (r.Fault.detected.(0), r.Fault.detection_cycle.(0))
        in
        let observe ~ids ~cycles =
          let od, oc = run_oracle ~id:d.div_fault ~cycles in
          let at = if od && oc >= 0 then oc else cycles - 1 in
          if at < 0 then []
          else
            let expected = oracle_outputs d.div_fault ~cycles ~at in
            match engine_outputs ~worker ids d.div_fault ~cycles ~at with
            | None -> []
            | Some observed ->
                List.init nout (fun i ->
                    (out_name i, expected.(i), observed.(i)))
        in
        (match
           Shrink.shrink ~run_engine ~run_oracle ~refine:Schedule.halve
             ~observe ~fault:d.div_fault
             ~ids ~cycles:w.Workload.cycles ()
         with
        | None -> None
        | Some o ->
            let file = Printf.sprintf "repro-%d.json" o.Shrink.sh_fault in
            let json =
              Shrink.repro_to_json ~design:design_name
                ~engine:(Campaign.engine_name config.engine)
                ?circuit:config.repro_meta ?inject:config.inject_divergence
                ~fault:faults.(o.Shrink.sh_fault)
                ~fault_name:
                  (Fault.describe g.Rtlir.Elaborate.design
                     faults.(o.Shrink.sh_fault))
                o
            in
            (* a host I/O failure is not a batch crash: supervision must
               not retry or abandon the batch over it *)
            (try
               write_atomic (Filename.concat dir file) (fun oc ->
                   output_string oc (Jsonl.to_string json);
                   output_char oc '\n')
             with Sys_error msg -> io_error "writing a reproducer: %s" msg);
            Some file)
  in
  let run_one_batch ~worker ~events b_index ids =
    let t = Stats.now () in
    let span_t0 = Obs.Trace.span_begin "batch" in
    let pieces = exec_pieces ~worker ~events b_index 0 ids in
    let nb = Array.length ids in
    let detected = Array.make nb false in
    let cycles = Array.make nb (-1) in
    let failed = Array.make nb false in
    let stats = ref (Stats.create ()) in
    let pos = ref 0 in
    List.iter
      (fun (pids, r) ->
        (match r with
        | Some (r : Fault.result) ->
            Array.iteri
              (fun k _ ->
                detected.(!pos + k) <- r.Fault.detected.(k);
                cycles.(!pos + k) <- r.Fault.detection_cycle.(k))
              pids;
            stats := Stats.add !stats r.Fault.stats
        | None ->
            (* abandoned by quarantine: verdict unknown, reported
               undetected and listed in [b_failed] *)
            Array.iteri (fun k _ -> failed.(!pos + k) <- true) pids);
        pos := !pos + Array.length pids)
      pieces;
    let divergences = ref [] in
    let sampled = oracle_sampled b_index in
    if sampled then begin
      let oracle = serial_sub ids in
      Array.iteri
        (fun k id ->
          if
            (not failed.(k))
            && (oracle.Fault.detected.(k) <> detected.(k)
               || (oracle.Fault.detected.(k)
                  && oracle.Fault.detection_cycle.(k) <> cycles.(k)))
          then begin
            (* quarantine: the fault is re-simulated alone, serially; that
               verdict is final and the engine's is reported as divergent.
               A detection-cycle mismatch between two detections counts —
               it is the same engine bug caught one observation later. *)
            let lone = serial_sub [| id |] in
            let d =
              {
                div_fault = id;
                div_batch = b_index;
                engine_detected = detected.(k);
                engine_cycle = cycles.(k);
                oracle_detected = lone.Fault.detected.(0);
                oracle_cycle = lone.Fault.detection_cycle.(0);
              }
            in
            divergences := d :: !divergences;
            detected.(k) <- d.oracle_detected;
            cycles.(k) <- d.oracle_cycle
          end)
        ids;
      if !divergences <> [] && not config.quarantine then
        err (Engine_divergence (List.rev !divergences))
    end;
    let divergences = List.rev !divergences in
    let repros =
      if config.repro_dir = None then []
      else
        List.filter_map (fun d -> shrink_one ~worker ids d) divergences
    in
    Obs.Trace.span_end "batch" span_t0;
    let b_failed =
      let l = ref [] in
      Array.iteri (fun k id -> if failed.(k) then l := id :: !l) ids;
      Array.of_list (List.rev !l)
    in
    {
      b_index;
      b_ids = ids;
      b_detected = detected;
      b_cycles = cycles;
      b_stats = !stats;
      b_wall = Stats.now () -. t;
      b_oracle_checked = sampled;
      b_divergences = divergences;
      b_failed;
      b_repros = repros;
    }
  in
  (* A batch whose task crashed [max_retries + 1] times even under
     supervision: every fault abandoned, nothing executed. *)
  let abandoned_outcome ~events i ids =
    events := quarantine_event i ids :: !events;
    {
      b_index = i;
      b_ids = ids;
      b_detected = Array.make (Array.length ids) false;
      b_cycles = Array.make (Array.length ids) (-1);
      b_stats = Stats.create ();
      b_wall = 0.0;
      b_oracle_checked = false;
      b_divergences = [];
      b_failed = Array.copy ids;
      b_repros = [];
    }
  in
  let executed = ref 0 in
  (* Heartbeat bookkeeping starts from the resumed batches so a resumed
     campaign reports true completion, not just this invocation's share. *)
  let done_faults = ref 0 in
  let det_faults = ref 0 in
  let count_batch b =
    done_faults := !done_faults + Array.length b.b_ids;
    Array.iter (fun d -> if d then incr det_faults) b.b_detected
  in
  List.iter count_batch resumed;
  let hb =
    Option.map
      (fun interval -> Obs.Heartbeat.create ~interval ~total:nlive ())
      config.progress
  in
  (* The coordinator is the only domain that touches [outcomes] and the
     journal: workers hand finished batches back through futures, and the
     coordinator records them in batch-index order. The journal therefore
     always holds an index-ordered prefix (plus resumed records), and the
     final merge below is independent of which worker ran which batch — the
     report is byte-identical for any [jobs]. *)
  let record i (b, events) =
    outcomes.(i) <- Some b;
    incr executed;
    count_batch b;
    (match jout with
    | Some oc ->
        (* retry/restart/quarantine events land just before their batch
           record, so the journal's clean prefix always ends at a batch
           record and resume counts exactly the events it keeps *)
        List.iter (fun e -> append_record ~chaos_batch:i oc e) events;
        append_record ~chaos_batch:i oc (batch_to_json b)
    | None -> ());
    match hb with
    | None -> ()
    | Some hb -> (
        match
          Obs.Heartbeat.update hb ~done_:!done_faults ~detected:!det_faults
        with
        | None -> ()
        | Some tick ->
            prerr_endline (Obs.Heartbeat.to_line hb tick);
            (match jout with
            | Some oc ->
                output_string oc (Obs.Heartbeat.to_json hb tick);
                output_char oc '\n';
                flush oc
            | None -> ()))
  in
  Fun.protect
    ~finally:(fun () ->
      match jout with Some oc -> close_out_noerr oc | None -> ())
    (fun () ->
      if config.jobs = 1 then
        for i = 0 to nbatches - 1 do
          match outcomes.(i) with
          | Some _ -> ()
          | None ->
              let events = ref [] in
              (* Supervised: a task-level crash (chaos injection, or a bug
                 outside exec_pieces's own recovery) discards the worker's
                 engine and re-runs the whole batch, up to [max_retries]
                 attempts, then abandons it. *)
              let rec go attempt =
                match
                  Chaos.batch_start ~batch:i;
                  run_one_batch ~worker:0 ~events i expected_ids.(i)
                with
                | b -> b
                | exception e when config.supervise && not (fatal e) ->
                    instances.(0) <- None;
                    Atomic.incr restarts;
                    events :=
                      restart_event i attempt (Printexc.to_string e)
                      :: !events;
                    if attempt < config.max_retries then go (attempt + 1)
                    else abandoned_outcome ~events i expected_ids.(i)
              in
              let b = go 0 in
              record i (b, List.rev !events)
        done
      else
        Pool.with_pool ~jobs:config.jobs (fun pool ->
            let submit events i =
              (* the label routes the batch index to the pool's chaos seam *)
              Pool.submit ~label:i pool (fun (ctx : Pool.ctx) ->
                  run_one_batch ~worker:ctx.Pool.worker ~events i
                    expected_ids.(i))
            in
            (* Submit outstanding batches costliest-first (the plan's cost
               hint) so the long pole starts before the pool fills with
               short batches; await — and therefore journal and merge — in
               batch-index order below, so reports and journals keep their
               bytes for any submission order. *)
            let futures = Array.make nbatches None in
            let order = Array.init nbatches (fun i -> i) in
            Array.sort
              (fun a b ->
                match
                  compare batches.(b).Schedule.sb_cost
                    batches.(a).Schedule.sb_cost
                with
                | 0 -> compare a b
                | c -> c)
              order;
            Array.iter
              (fun i ->
                match outcomes.(i) with
                | Some _ -> ()
                | None ->
                    let events = ref [] in
                    futures.(i) <- Some (events, submit events i))
              order;
            Array.iteri
              (fun i slot ->
                match slot with
                | None -> ()
                | Some (events, fut) ->
                    (* The coordinator, not the worker, supervises task
                       failures for jobs > 1: a failed future is
                       re-dispatched as a fresh task (any worker may pick
                       it up — the crashed worker already discarded its own
                       engine where it could; the pool chaos seam fails
                       before any engine is touched). Re-dispatch happens
                       in batch-index order, so recovery is deterministic
                       given the failure schedule. *)
                    let rec obtain fut attempt =
                      match Pool.await_result fut with
                      | Ok b -> record i (b, List.rev !events)
                      | Error (e, bt) ->
                          if (not config.supervise) || fatal e then
                            Printexc.raise_with_backtrace e bt
                          else begin
                            Atomic.incr restarts;
                            events :=
                              restart_event i attempt (Printexc.to_string e)
                              :: !events;
                            if attempt < config.max_retries then
                              obtain (submit events i) (attempt + 1)
                            else begin
                              let b =
                                abandoned_outcome ~events i expected_ids.(i)
                              in
                              record i (b, List.rev !events)
                            end
                          end
                    in
                    obtain fut 0)
              futures));
  let detected = Array.make n false in
  let detection_cycle = Array.make n (-1) in
  let stats = ref (Stats.create ()) in
  let divergences = ref [] in
  let oracle_checked = ref 0 in
  let failed_faults = ref [] in
  let repro_files = ref [] in
  Array.iter
    (function
      | None -> assert false (* every index was filled above *)
      | Some b ->
          Array.iteri
            (fun k id ->
              detected.(id) <- b.b_detected.(k);
              detection_cycle.(id) <- b.b_cycles.(k))
            b.b_ids;
          stats := Stats.add !stats b.b_stats;
          if b.b_oracle_checked then incr oracle_checked;
          divergences := !divergences @ b.b_divergences;
          Array.iter (fun id -> failed_faults := id :: !failed_faults)
            b.b_failed;
          repro_files := !repro_files @ b.b_repros)
    outcomes;
  let wall = Stats.now () -. t0 in
  !stats.Stats.total_seconds <- wall;
  (match warm_input with
  | Some _ ->
      (* one capture run behind this result, whether this invocation ran
         it or reused a shared one via [config.capture] *)
      !stats.Stats.goodtrace_captures <- 1;
      !stats.Stats.plan_batches <- nbatches;
      !stats.Stats.plan_snapshots <-
        (match plan.Schedule.sp_trace with
        | Some t -> Array.length t.Sim.Goodtrace.snapshots
        | None -> 0)
  | None -> ());
  !stats.Stats.cone_pruned <- npruned;
  let result =
    Fault.make_result ~detected ~detection_cycle ~stats:!stats
      ~wall_time:wall ()
  in
  {
    result;
    batches_total = nbatches;
    batches_resumed = List.length resumed;
    batches_executed = !executed;
    retries = replay.rp_retries + Atomic.get retries;
    restarts = replay.rp_restarts + Atomic.get restarts;
    oracle_checked = !oracle_checked;
    divergences = !divergences;
    quarantined = List.map (fun d -> d.div_fault) !divergences;
    failed_faults = List.rev !failed_faults;
    pruned_faults = Array.to_list plan.Schedule.sp_pruned;
    repros = !repro_files;
    capture_bytes =
      (match plan.Schedule.sp_trace with
      | Some t -> t.Sim.Goodtrace.capture_bytes
      | None -> 0);
  }

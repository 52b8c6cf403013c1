(* Measurement helpers for the benchmark: summary statistics, the
   benchmark's own layer spans, and self times recovered from the
   program's Chrome trace export. *)

let wall = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- statistics ---- *)

let sorted xs = List.sort compare xs

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let sum = List.fold_left ( +. ) 0.0

(* ---- the benchmark's own spans ----

   One span per call into a layer's public function. Spans are kept in
   memory, named after the layer they enter, and summed per name; none of
   them nest, so a span's duration is its self time. *)

type spans = { tbl : (string, float) Hashtbl.t }

let spans () = { tbl = Hashtbl.create 8 }

let span sp name f =
  let t0 = wall () in
  let r = f () in
  let d = wall () -. t0 in
  Hashtbl.replace sp.tbl name
    (d +. Option.value ~default:0.0 (Hashtbl.find_opt sp.tbl name));
  r

let span_total sp name = Option.value ~default:0.0 (Hashtbl.find_opt sp.tbl name)
let spans_total sp = Hashtbl.fold (fun _ d acc -> acc +. d) sp.tbl 0.0

(* ---- self times from the program's trace ----

   The program's Chrome export ([Obs.Trace.to_chrome_string]) is a JSON
   object whose "traceEvents" array holds one object per event; its
   complete ("ph":"X") events are spans. A riscv_mini dispatch records
   about 0.75 M events, which as one parsed tree would take close to 1 GB,
   so [json_elements] cuts the array into its elements (tracking strings
   and nesting only) and each is parsed on its own with the journal's JSON
   parser.

   The program records spans at their end, so children precede parents; the
   spans are re-sorted per track by start (longest first) and a stack of
   open spans charges each span's duration to its innermost enclosing one. *)

type event = { name : string; tid : int; ts : int; dur : int }

(* [f] over the source text of each element of the array that follows the
   first occurrence of key [key] in [doc]. *)
let json_elements ~key f doc =
  let n = String.length doc and k = Printf.sprintf "%S" key in
  let rec find i =
    if i + String.length k > n then failwith ("trace export has no " ^ k)
    else if String.sub doc i (String.length k) = k then i + String.length k
    else find (i + 1)
  in
  let i = ref (String.index_from doc (find 0) '[' + 1) in
  let start = ref !i and depth = ref 0 and in_str = ref false and acc = ref [] in
  while !depth >= 0 do
    (match doc.[!i] with
    | '\\' when !in_str -> incr i
    | '"' -> in_str := not !in_str
    | _ when !in_str -> ()
    | '{' | '[' -> incr depth
    | ('}' | ']') when !depth > 0 -> decr depth
    | (',' | ']') as c when !depth = 0 ->
        let e = String.sub doc !start (!i - !start) in
        if String.trim e <> "" then acc := f e :: !acc;
        start := !i + 1;
        if c = ']' then depth := -1
    | _ -> ());
    incr i
  done;
  List.rev !acc

let chrome_spans doc =
  let module J = Harness.Jsonl in
  List.filter_map Fun.id
    (json_elements ~key:"traceEvents"
       (fun text ->
         let e = J.parse text in
         match J.member "ph" e with
         | Some (J.String "X") ->
             Some
               {
                 name = J.get_string "name" e;
                 tid = J.get_int "tid" e;
                 ts = J.get_int "ts" e;
                 dur = J.get_int "dur" e;
               }
         | _ -> None)
       doc)

(* Self seconds per span name. *)
let self_times events =
  let a = Array.of_list events in
  Array.sort
    (fun x y ->
      match compare x.tid y.tid with
      | 0 -> ( match compare x.ts y.ts with 0 -> compare y.dur x.dur | c -> c)
      | c -> c)
    a;
  let self = Array.map (fun e -> e.dur) a in
  let stack = ref [] in
  Array.iteri
    (fun i e ->
      let rec unwind = function
        | j :: rest when a.(j).tid <> e.tid || a.(j).ts + a.(j).dur <= e.ts ->
            unwind rest
        | st -> st
      in
      stack := unwind !stack;
      (match !stack with
      | j :: _ -> self.(j) <- self.(j) - e.dur
      | [] -> ());
      stack := i :: !stack)
    a;
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i e ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl e.name) in
      Hashtbl.replace tbl e.name (prev + max 0 self.(i)))
    a;
  fun name ->
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl name)) /. 1e6

(* ---- host ---- *)

let spin n =
  let a = ref 0 in
  for i = 1 to n do
    a := ((!a * 31) + i) land 0xFFFFFF
  done;
  !a

(* Host reference: a fixed hashtable-and-allocation kernel. On a shared
   host the campaigns' speed swings by up to 1.7x for tens of seconds at a
   time with cache and memory contention from other tenants; this kernel
   swings with it, while a pure-ALU loop does not (each run prints the
   correlation per circuit, see [correlation]). [host_ref] returns the
   kernel's wall seconds. A full major collection runs first, outside the
   timing, so the garbage a campaign call leaves behind is not collected
   on the kernel's clock. [normalise] turns [raw] seconds, timed between
   two reference samples, into seconds at the reference's nominal speed. *)
let host_ref_nominal = 0.08

let normalise ~before ~after raw = raw /. ((before +. after) /. 2.0) *. host_ref_nominal

let host_ref () =
  Gc.full_major ();
  let t0 = wall () in
  let h = Hashtbl.create 16 in
  for i = 1 to 500_000 do
    Hashtbl.replace h ((i * 7919) land 65535) (i, i)
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h));
  wall () -. t0

(* Pearson correlation of two equally long samples; 0 when either is flat. *)
let correlation xs ys =
  let n = float_of_int (List.length xs) in
  let mx = sum xs /. n and my = sum ys /. n in
  let sxy = sum (List.map2 (fun x y -> (x -. mx) *. (y -. my)) xs ys)
  and sxx = sum (List.map (fun x -> (x -. mx) ** 2.0) xs)
  and syy = sum (List.map (fun y -> (y -. my) ** 2.0) ys) in
  if sxx = 0.0 || syy = 0.0 then 0.0 else sxy /. sqrt (sxx *. syy)

(* Wall time of two domains each doing a unit of work over one domain
   doing one: 1.0 is perfect two-way parallelism, 2.0 is none. *)
let par2_ratio () =
  let n = 20_000_000 in
  let once () =
    let t0 = wall () in
    ignore (Sys.opaque_identity (spin n));
    let t1 = wall () in
    let d = Domain.spawn (fun () -> spin n) in
    ignore (Sys.opaque_identity (spin n));
    ignore (Sys.opaque_identity (Domain.join d));
    let t2 = wall () in
    (t2 -. t1) /. (t1 -. t0)
  in
  median (List.init 3 (fun _ -> once ()))

(* Resident set of this process in MB, from /proc: [peak_rss_mb] is the
   high-water mark, [rss_mb] the current size. [reset_peak_rss] restarts
   the high-water mark at the current resident set, so a later reading
   covers only what ran in between; it returns [false] where the kernel
   does not allow it. *)
let status_mb field =
  let ic = open_in "/proc/self/status" in
  let prefix = field ^ ":" in
  let k = String.length prefix in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > k && String.sub line 0 k = prefix ->
            Scanf.sscanf (String.sub line k (String.length line - k)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> 0.0
      in
      find ())

let peak_rss_mb () = status_mb "VmHWM"
let rss_mb () = status_mb "VmRSS"

let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | oc -> (
      match
        output_string oc "5";
        close_out oc
      with
      | () -> true
      | exception Sys_error _ ->
          close_out_noerr oc;
          false)
  | exception Sys_error _ -> false

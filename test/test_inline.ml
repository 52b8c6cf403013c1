(* Inlining canaries.

   The engine's per-fault hot path reads signals through [Sim.State.get]
   and probes diff stores through [Engine.Diffstore.find]; both return an
   [int64]. When the call is inlined the value stays unboxed; when it is
   an out-of-line call across a module boundary, every result is boxed on
   the minor heap (3 words each). A library built with -opaque (dune's
   dev profile) hides its inlining information from other modules, and a
   [find] whose probe is a recursive local closure is never inlined at
   all, so each of these loops allocates thousands of words under either
   regression and exactly none when the build inlines as intended (the
   workspace's release profile, see DESIGN.md "Build"). *)

open Sim

let calls = 1000

let acc : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t =
  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1

let minor_words_of loop =
  (* one untimed pass first: lazy set-up and code paths warm *)
  loop ();
  let before = Gc.minor_words () in
  loop ();
  Gc.minor_words () -. before

let test_state_get () =
  let _, g, _, _ =
    Circuits.Bench_circuit.instantiate (Circuits.find "alu") ~scale:0.05
  in
  let st = State.create g.Rtlir.Elaborate.design in
  let n = st.State.nsig in
  let loop () =
    for i = 1 to calls do
      Bigarray.Array1.unsafe_set acc 0
        (Int64.add (Bigarray.Array1.unsafe_get acc 0) (State.get st (i mod n)))
    done
  in
  Alcotest.(check (float 0.0))
    "State.get into an int64 accumulator allocates nothing" 0.0
    (minor_words_of loop)

let test_diffstore_find () =
  let store = Engine.Diffstore.create ~expect:16 () in
  for k = 0 to 31 do
    Engine.Diffstore.set store (k * 3) (Int64.of_int k)
  done;
  let loop () =
    for i = 1 to calls do
      Bigarray.Array1.unsafe_set acc 0
        (Int64.add
           (Bigarray.Array1.unsafe_get acc 0)
           (Engine.Diffstore.find store (i land 127) ~default:7L))
    done
  in
  Alcotest.(check (float 0.0))
    "Diffstore.find ~default into an int64 accumulator allocates nothing" 0.0
    (minor_words_of loop)

let suite =
  [
    Alcotest.test_case "State.get inlines across modules" `Quick
      test_state_get;
    Alcotest.test_case "Diffstore.find inlines across modules" `Quick
      test_diffstore_find;
  ]

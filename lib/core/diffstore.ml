type i64a = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Slot states in [keys]: -1 empty, otherwise the key. *)
let empty_slot = -1

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

(* Fibonacci-style multiplicative mix; stays positive via the final mask. *)
let[@inline] hash key = key * 0x2545F4914F6CDD1D

let capacity_for expect =
  (* load factor 1/2 at the expected population, 8 slots minimum *)
  next_pow2 (max 8 (2 * max 1 expect)) 8

(* A cleared table shrinks back to its expected size once its capacity has
   outgrown it by this factor, so a one-off giant batch does not pin its
   high-water footprint for the rest of a campaign. *)
let shrink_factor = 16

type t = {
  mutable keys : int array;
  mutable vals : i64a;
  mutable mask : int;  (* capacity - 1 *)
  mutable count : int;  (* live entries *)
  base_cap : int;  (* capacity_for the creation-time expectation *)
}

let make_vals cap =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout cap in
  Bigarray.Array1.fill a 0L;
  a

let create ~expect () =
  let cap = capacity_for expect in
  {
    keys = Array.make cap empty_slot;
    vals = make_vals cap;
    mask = cap - 1;
    count = 0;
    base_cap = cap;
  }

let capacity t = Array.length t.keys
let length t = t.count
let is_empty t = t.count = 0

(* Slot holding [key], or -1 when absent. A loop rather than a recursive
   local probe: a function that defines a local closure is never inlined,
   and [find] is on the engine's per-fault hot path, where an out-of-line
   call boxes its int64 result. *)
let[@inline] find_slot t key =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash key land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key && !k <> empty_slot do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  if !k = key then !i else -1

let[@inline] mem t key = find_slot t key >= 0

let[@inline] find t key ~default =
  let i = find_slot t key in
  if i >= 0 then Bigarray.Array1.unsafe_get t.vals i else default

let rehash t cap =
  let okeys = t.keys and ovals = t.vals in
  let keys = Array.make cap empty_slot in
  let vals = make_vals cap in
  let mask = cap - 1 in
  for i = 0 to Array.length okeys - 1 do
    let k = Array.unsafe_get okeys i in
    if k >= 0 then begin
      let rec probe j =
        if Array.unsafe_get keys j = empty_slot then begin
          Array.unsafe_set keys j k;
          Bigarray.Array1.unsafe_set vals j (Bigarray.Array1.unsafe_get ovals i)
        end
        else probe ((j + 1) land mask)
      in
      probe (hash k land mask)
    end
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask

let set t key v =
  if key < 0 then invalid_arg "Diffstore.set: negative key";
  let keys = t.keys and mask = t.mask in
  let rec probe i =
    let k = Array.unsafe_get keys i in
    if k = key then Bigarray.Array1.unsafe_set t.vals i v
    else if k = empty_slot then begin
      Array.unsafe_set keys i key;
      Bigarray.Array1.unsafe_set t.vals i v;
      t.count <- t.count + 1;
      if 2 * t.count > mask + 1 then rehash t (2 * (mask + 1))
    end
    else probe ((i + 1) land mask)
  in
  probe (hash key land mask)

(* Backward-shift deletion: empty slot [hole], then walk the probe run
   after it and move back every entry whose home slot does not lie
   (cyclically) strictly between the hole and the entry, so every key stays
   reachable from its home without a tombstone. *)
let remove_slot t hole =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let rec shift hole j =
    let j = (j + 1) land mask in
    let k = Array.unsafe_get keys j in
    if k = empty_slot then Array.unsafe_set keys hole empty_slot
    else if (j - (hash k land mask)) land mask >= (j - hole) land mask then begin
      Array.unsafe_set keys hole k;
      Bigarray.Array1.unsafe_set vals hole (Bigarray.Array1.unsafe_get vals j);
      shift j j
    end
    else shift hole j
  in
  shift hole hole;
  t.count <- t.count - 1

let remove t key =
  let i = find_slot t key in
  if i >= 0 then remove_slot t i

let clear t =
  if Array.length t.keys > shrink_factor * t.base_cap then begin
    t.keys <- Array.make t.base_cap empty_slot;
    t.vals <- make_vals t.base_cap;
    t.mask <- t.base_cap - 1
  end
  else if t.count > 0 then
    Array.fill t.keys 0 (Array.length t.keys) empty_slot;
  t.count <- 0

let iter t f =
  if t.count > 0 then begin
    let keys = t.keys in
    for i = 0 to Array.length keys - 1 do
      let k = Array.unsafe_get keys i in
      if k >= 0 then f k (Bigarray.Array1.unsafe_get t.vals i)
    done
  end

let iter_keys t f =
  if t.count > 0 then begin
    let keys = t.keys in
    for i = 0 to Array.length keys - 1 do
      let k = Array.unsafe_get keys i in
      if k >= 0 then f k
    done
  end

module Counts = struct
  type nonrec t = t

  let create = create
  let length = length
  let mem = mem
  let capacity = capacity
  let iter_keys = iter_keys
  let clear = clear

  let bump t key delta =
    if key < 0 then invalid_arg "Diffstore.Counts.bump: negative key";
    let i = find_slot t key in
    if i >= 0 then begin
      let c = Int64.to_int (Bigarray.Array1.unsafe_get t.vals i) + delta in
      if c <= 0 then remove_slot t i
      else Bigarray.Array1.unsafe_set t.vals i (Int64.of_int c)
    end
    else if delta > 0 then set t key (Int64.of_int delta)
end

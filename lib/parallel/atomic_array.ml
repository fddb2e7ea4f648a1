(* One flat, unboxed [int array] holds every cell, as in the paper's
   generated C++: reads and plain sets are ordinary array accesses, and
   the two read-modify-write primitives are word-sized hardware atomics
   run in place by a [noalloc] C stub (atomic_array_stubs.c). OCaml ints
   are immediates, so no write barrier is involved. The other updates
   ([fetch_min], [fetch_max], [add_with_floor]) are CAS retry loops.
   The .mli says why plain reads racing with CAS writes are safe.

   [make_padded] spaces the used cells a cache line apart (8 words per
   64-byte line), for small fetch_add-heavy counter arrays indexed by
   worker id, where dense cells would be false sharing.

   Access discipline: every public operation bounds-checks its index once
   (in [slot]); CAS retry loops and bulk operations then work on the raw
   cell index. *)

type t = {
  cells : int array;
  length : int;
  shift : int; (* cell index of logical [i] is [i lsl shift] *)
  id : int; (* allocation order, names the array in race findings *)
  shadow : int array Atomic.t; (* race-mode per-slot (episode, tid) tags *)
}

external cas : int array -> int -> int -> int -> bool = "graphit_atomic_cas"
[@@noalloc]

external fetch_and_add : int array -> int -> int -> int
  = "graphit_atomic_fetch_add"
[@@noalloc]

(* cells/line: 8 words per 64-byte cache line. *)
let pad_shift = 3

let next_id = Atomic.make 0

let alloc ~shift cells length =
  {
    cells;
    length;
    shift;
    id = Atomic.fetch_and_add next_id 1;
    shadow = Atomic.make [||];
  }

let make n v = alloc ~shift:0 (Array.make n v) n
let make_padded n v = alloc ~shift:pad_shift (Array.make (n lsl pad_shift) v) n
let length a = a.length
let id a = a.id

let[@inline] slot a i =
  if i < 0 || i >= a.length then invalid_arg "Atomic_array: index out of bounds";
  i lsl a.shift

let get a i = Array.unsafe_get a.cells (slot a i)

(* Race-mode shadow tracking for plain [set]. Tags pack as
   [(episode lsl 8) lor tid]; a previous tag from the *same* episode with
   a *different* tid means two workers plain-set this slot inside one
   [Pool.run_workers] round. The shadow is itself written plainly — a
   missed detection under extreme reordering is acceptable, a false
   positive is impossible (same-episode different-tid tags only arise
   from genuinely overlapping sets). Allocated lazily on first tracked
   write so arrays in race-disabled runs pay nothing. *)
let[@inline never] track_set a i =
  let shadow =
    let s = Atomic.get a.shadow in
    if s != [||] then s
    else begin
      let fresh = Array.make a.length 0 in
      if Atomic.compare_and_set a.shadow [||] fresh then fresh
      else Atomic.get a.shadow
    end
  in
  let tid = Race.current_tid () land 255 in
  let episode = Race.current_episode () in
  let tag = (episode lsl 8) lor tid in
  let prev = shadow.(i) in
  if prev <> 0 && prev lsr 8 = episode && prev land 255 <> tid then
    Race.report
      {
        Race.array_id = a.id;
        slot = i;
        first_tid = prev land 255;
        second_tid = tid;
        episode;
      };
  shadow.(i) <- tag

let set a i v =
  Array.unsafe_set a.cells (slot a i) v;
  if Race.enabled () then track_set a i

let compare_and_set a i ~expected ~desired =
  cas a.cells (slot a i) expected desired

let fetch_min a i v =
  let c = slot a i in
  let rec retry () =
    let cur = Array.unsafe_get a.cells c in
    if v >= cur then false
    else if cas a.cells c cur v then true
    else retry ()
  in
  retry ()

let fetch_max a i v =
  let c = slot a i in
  let rec retry () =
    let cur = Array.unsafe_get a.cells c in
    if v <= cur then false
    else if cas a.cells c cur v then true
    else retry ()
  in
  retry ()

let fetch_add a i d = fetch_and_add a.cells (slot a i) d

let add_with_floor a i ~delta ~floor =
  let c = slot a i in
  let rec retry () =
    let cur = Array.unsafe_get a.cells c in
    (* A decrement must leave values already at or below the floor untouched
       (clamping them *up* to the floor would un-finalize peeled vertices). *)
    if delta < 0 && cur <= floor then None
    else begin
      let target = max floor (cur + delta) in
      if target = cur then None
      else if cas a.cells c cur target then Some (cur, target)
      else retry ()
    end
  in
  retry ()

let to_array a =
  if a.shift = 0 then Array.copy a.cells
  else Array.init a.length (fun i -> Array.unsafe_get a.cells (i lsl a.shift))

let of_array src = alloc ~shift:0 (Array.copy src) (Array.length src)

let blit_from a src =
  if a.length <> Array.length src then
    invalid_arg "Atomic_array.blit_from: length mismatch";
  if a.shift = 0 then Array.blit src 0 a.cells 0 a.length
  else
    for i = 0 to a.length - 1 do
      Array.unsafe_set a.cells (i lsl a.shift) (Array.unsafe_get src i)
    done

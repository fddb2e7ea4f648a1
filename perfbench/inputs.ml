(* Seeded workload graphs, generated in-process and cached as GRAPHBIN.
   The cache is keyed by kind, size and seed; generation is never timed
   by a measuring run (run.py generates in a separate process first). *)

type kind =
  | Road of { rows : int; cols : int }
  | Rmat of { scale : int; edge_factor : int }

type spec = { kind : kind; seed : int }

let name { kind; seed } =
  match kind with
  | Road { rows; cols } -> Printf.sprintf "road-%dx%d-s%d" rows cols seed
  | Rmat { scale; edge_factor } ->
      Printf.sprintf "rmat-%d-%d-s%d" scale edge_factor seed

let cache_dir = ".perfbench_cache"
let graph_path spec = Filename.concat cache_dir (name spec ^ ".graphbin")
let coords_path spec = Filename.concat cache_dir (name spec ^ ".coords")

let generate spec =
  let rng = Support.Rng.create spec.seed in
  match spec.kind with
  | Road { rows; cols } ->
      let el, coords = Graphs.Generators.road_grid ~rng ~rows ~cols () in
      (el, Some coords)
  | Rmat { scale; edge_factor } ->
      let el = Graphs.Generators.rmat ~rng ~scale ~edge_factor () in
      (Graphs.Generators.assign_weights ~rng ~lo:1 ~hi:1000 el, None)

(* Keep at most [keep] cached graphs per kind prefix, oldest removed
   first, together with their coordinates and oracle files, so runs over
   many seeds do not fill the disk. *)
let evict spec ~keep =
  let prefix =
    match spec.kind with
    | Road { rows; cols } -> Printf.sprintf "road-%dx%d-s" rows cols
    | Rmat { scale; edge_factor } -> Printf.sprintf "rmat-%d-%d-s" scale edge_factor
  in
  let starts p f = String.length f > String.length p && String.sub f 0 (String.length p) = p in
  let files = Sys.readdir cache_dir |> Array.to_list in
  let mine =
    files
    |> List.filter (fun f -> starts prefix f && Filename.check_suffix f ".graphbin")
    |> List.map (fun f -> ((Unix.stat (Filename.concat cache_dir f)).Unix.st_mtime, f))
    |> List.sort compare |> List.rev
  in
  List.iteri
    (fun i (_, f) ->
      if i >= keep then
        let base = Filename.chop_suffix f ".graphbin" ^ "." in
        List.iter
          (fun g -> if starts base g then Sys.remove (Filename.concat cache_dir g))
          files)
    mine

(* Returns the generation seconds, or [None] when the graph was cached. *)
let ensure spec =
  if Sys.file_exists (graph_path spec) then None
  else begin
    if not (Sys.file_exists cache_dir) then Unix.mkdir cache_dir 0o755;
    evict spec ~keep:2;
    let (), seconds =
      Measure.time (fun () ->
          let el, coords = generate spec in
          Option.iter (Graphs.Graph_io.write_coords (coords_path spec)) coords;
          let tmp = graph_path spec ^ ".tmp" in
          Graphs.Graph_bin.save tmp (Graphs.Csr.of_edge_list el);
          Sys.rename tmp (graph_path spec))
    in
    Some seconds
  end

(* Bytes of the flat CSR arrays (offsets, targets, weights). *)
let csr_bytes csr =
  8
  * (Array.length (Graphs.Csr.offsets csr)
    + Array.length (Graphs.Csr.targets csr)
    + Array.length (Graphs.Csr.weights csr))

(* [count] distinct seeded vertices with non-zero out-degree. *)
let sources ~rng csr ~count =
  let n = Graphs.Csr.num_vertices csr in
  let seen = Hashtbl.create count in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let v = Support.Rng.int rng n in
      if Graphs.Csr.out_degree csr v = 0 || Hashtbl.mem seen v then go acc k
      else begin
        Hashtbl.add seen v ();
        go (v :: acc) (k - 1)
      end
  in
  Array.of_list (go [] count)

(* The workload's graph made undirected: what k-core peels, and what
   ordered_serve builds for its first kcore query. *)
let symmetrize csr =
  Graphs.Csr.of_edge_list (Graphs.Edge_list.symmetrized (Graphs.Csr.to_edge_list csr))

(* Oracle answers, computed by [gen] and kept next to the graph so the
   measuring process never holds them: one 8-byte little-endian int per
   vertex. *)
let oracle_path spec tag = Filename.concat cache_dir (Printf.sprintf "%s.%s.oracle" (name spec) tag)

let save_ints path a =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      let b = Bytes.create 8 in
      Array.iter
        (fun x ->
          Bytes.set_int64_le b 0 (Int64.of_int x);
          Out_channel.output_bytes oc b)
        a);
  Sys.rename tmp path

(* [f i x] for the [i]-th int of a [save_ints] file, streamed in small
   chunks; returns the count. *)
let iter_ints path f =
  In_channel.with_open_bin path (fun ic ->
      let n = Int64.to_int (In_channel.length ic) / 8 in
      let chunk = 8192 in
      let buf = Bytes.create (8 * chunk) in
      let rec go i =
        if i < n then begin
          let k = min chunk (n - i) in
          really_input ic buf 0 (8 * k);
          for j = 0 to k - 1 do
            f (i + j) (Int64.to_int (Bytes.get_int64_le buf (8 * j)))
          done;
          go (i + k)
        end
      in
      go 0;
      n)

(* Whether [a] holds exactly the ints saved at [path]. *)
let matches path a =
  let len = Array.length a in
  let same = ref true in
  let n = iter_ints path (fun i x -> if i >= len || a.(i) <> x then same := false) in
  !same && n = len

(* The two batch workloads, driven through library calls: road-sssp
   (Δ-stepping with bucket fusion on a 1M-vertex road grid) and
   social-analytics (lazy hybrid-direction SSSP plus histogram k-core on
   an RMAT graph). *)

module M = Measure
module S = Ordered.Schedule

type config = {
  spec : Inputs.spec;
  schedule : S.t;
  symmetrize : bool;
      (* social: setup also builds the symmetrized CSR, and every trial
         peels it once *)
  sources : int;
      (* SSSP sources per trial: RMAT sources differ more in cost than
         road-grid ones, so social-analytics needs more for a steady
         per-trial median *)
}

let setup_reps = 3
let min_trials = 3

let road ~seed =
  {
    spec = { Inputs.kind = Road { rows = 1000; cols = 1000 }; seed };
    schedule = { S.default with strategy = S.Eager_with_fusion; delta = 256 };
    symmetrize = false;
    sources = 6;
  }

let social ~seed =
  {
    spec = { Inputs.kind = Rmat { scale = 17; edge_factor = 16 }; seed };
    schedule = { S.default with strategy = S.Lazy; delta = 8; traversal = S.Hybrid };
    symmetrize = true;
    sources = 12;
  }

(* The schedule as ordered_run and ordered_serve flags. [--direction]
   only when it is not the default SparsePush: ordered_serve has no such
   flag, and serves only push schedules. *)
let schedule_flags (s : S.t) =
  [ "--strategy"; S.strategy_to_string s.strategy; "--delta"; string_of_int s.delta ]
  @
  if s.traversal = S.Sparse_push then []
  else [ "--direction"; S.traversal_to_string s.traversal ]

let kcore_schedule = { S.default with strategy = S.Lazy_constant_sum }

type prepared = {
  csr : Graphs.Csr.t;
  handle : Graphs.Handle.t;
  sym : Graphs.Csr.t option;
  phases : (string * float) list;  (* per-layer setup split *)
  wall : float;
}

(* Start until ready for the first timed query: GRAPHBIN load, the
   symmetrized CSR when the workload peels, and the transpose. *)
let setup cfg =
  let t0 = M.now () in
  let csr, load = M.time (fun () -> Graphs.Graph_bin.load_csr (Inputs.graph_path cfg.spec)) in
  let sym, symmetrize =
    M.time (fun () -> if cfg.symmetrize then Some (Inputs.symmetrize csr) else None)
  in
  let handle = Graphs.Handle.create csr in
  let (), transpose = M.time (fun () -> Graphs.Handle.prewarm handle) in
  let wall = M.now () -. t0 in
  {
    csr;
    handle;
    sym;
    wall;
    phases =
      [
        ("graphs.load_s", load);
        ("graphs.symmetrize_s", symmetrize);
        ("graphs.transpose_s", transpose);
      ];
  }

(* The CLI path: what ordered_run and ordered_serve do with a GRAPHBIN. *)
let cli_load cfg =
  snd
    (M.time (fun () ->
         Graphs.Csr.of_edge_list
           (Graphs.Csr.to_edge_list (Graphs.Graph_bin.load_csr (Inputs.graph_path cfg.spec)))))

let sources_of cfg csr =
  Inputs.sources ~rng:(Support.Rng.create ((cfg.spec.seed * 7919) + 17)) csr ~count:cfg.sources

let dist_oracle cfg source = Inputs.oracle_path cfg.spec (Printf.sprintf "dist%d" source)
let core_oracle cfg = Inputs.oracle_path cfg.spec "coreness"

(* Run by [gen], in its own untimed process: Dijkstra distances from
   every source a run times and, when the workload peels, the sequential
   peel's coreness, so the oracle never adds to the measured process's
   peak resident set. *)
let ensure_oracle cfg =
  let csr = Graphs.Graph_bin.load_csr (Inputs.graph_path cfg.spec) in
  let save path f = if not (Sys.file_exists path) then Inputs.save_ints path (f ()) in
  Array.iter
    (fun s -> save (dist_oracle cfg s) (fun () -> Algorithms.Dijkstra.distances csr ~source:s))
    (sources_of cfg csr);
  if cfg.symmetrize then
    save (core_oracle cfg) (fun () -> Algorithms.Kcore_peel_seq.coreness (Inputs.symmetrize csr))

(* One ordered_run sssp invocation on the cached GRAPHBIN. The CLI
   prints no distances, so the check is that its counters cover the
   reachable set: every reached vertex processed and every out-edge of
   one relaxed at least once. *)
let cli_row r cfg ~bin ~csr ~source =
  let code, out, seconds =
    M.run_capture (Filename.concat bin "ordered_run.exe")
      ([ "sssp"; Inputs.graph_path cfg.spec; "--source"; string_of_int source; "-j"; "2" ]
      @ schedule_flags cfg.schedule)
  in
  let reach = ref 0 and out_edges = ref 0 in
  ignore
    (Inputs.iter_ints (dist_oracle cfg source) (fun v d ->
         if d <> Bucketing.Bucket_order.null_priority then begin
           incr reach;
           out_edges := !out_edges + Graphs.Csr.out_degree csr v
         end));
  let ok =
    code = 0
    && (match M.stat_field out "vertices" with Some n -> n >= !reach | None -> false)
    && match M.stat_field out "edges" with Some n -> n >= !out_edges | None -> false
  in
  M.check r ok (Printf.sprintf "ordered_run sssp --source %d (exit %d)" source code);
  seconds

let reached dist =
  Array.fold_left
    (fun n d -> if d <> Bucketing.Bucket_order.null_priority then n + 1 else n)
    0 dist

(* Engine layers from traced SSSP runs ([Ordered.Trace] and [Stats]),
   as per-query medians; [q50] is the untraced median query time and
   [single_q50] the same on a one-worker pool. *)
let engine_layers r ~m ~q50 ~single_q50 traces =
  let med f xs = M.median (List.map f xs) in
  let st f = med (fun (_, (res : Algorithms.Sssp_delta.result), _) -> float_of_int (f res.stats)) traces in
  let rounds_sum f =
    med (fun (tr, _, _) -> M.sum (List.map f (Ordered.Trace.rounds tr))) traces
  in
  M.metric r "ordered.rounds" "count" (st (fun s -> s.Ordered.Stats.rounds));
  M.metric r "ordered.global_syncs" "count" (st (fun s -> s.global_syncs));
  M.metric r "ordered.fused_drains" "count" (st (fun s -> s.fused_drains));
  M.metric r "ordered.vertices_processed" "count" (st (fun s -> s.vertices_processed));
  M.metric r "ordered.edges_relaxed" "count" (st (fun s -> s.edges_relaxed));
  M.metric r "ordered.reprocess_frac" "ratio"
    (med
       (fun (_, (res : Algorithms.Sssp_delta.result), _) ->
         (float_of_int res.stats.vertices_processed /. float_of_int (reached res.dist)) -. 1.)
       traces);
  M.metric r "ordered.edges_per_s" "edges/s" (float_of_int m /. q50);
  M.metric r "ordered.round_s" "s" (rounds_sum (fun rd -> rd.Ordered.Trace.wall_seconds));
  (* Query wall minus the rounds: per-query init (arrays, buckets). *)
  M.residual r "ordered.query_unattributed_s" "s"
    ~value:
      (med
         (fun (tr, _, t) ->
           t -. M.sum (List.map (fun rd -> rd.Ordered.Trace.wall_seconds) (Ordered.Trace.rounds tr)))
         traces)
    ~total:(med (fun (_, _, t) -> t) traces);
  let traverse = rounds_sum (fun rd -> rd.traverse_seconds) in
  M.metric r "bucketing.dequeue_s" "s" (rounds_sum (fun rd -> rd.dequeue_seconds));
  M.metric r "bucketing.inserts" "count" (st (fun s -> s.bucket_inserts));
  M.metric r "bucketing.buckets" "count" (st (fun s -> s.buckets_processed));
  M.metric r "traverse.s" "s" traverse;
  M.metric r "traverse.edges_per_s" "edges/s" (st (fun s -> s.edges_relaxed) /. traverse);
  let pulls = st (fun s -> s.pull_rounds) in
  M.metric r "traverse.pull_rounds" "count" pulls;
  M.metric r "traverse.pull_frac" "ratio" (pulls /. st (fun s -> s.rounds));
  M.metric r "parallel.sync_wait_s" "s" (rounds_sum (fun rd -> rd.sync_wait_seconds));
  M.metric r "parallel.speedup_2w" "ratio" (single_q50 /. q50)

let kcore_layers r = function
  | [] -> ()
  | ks ->
      let med f = M.median (List.map f ks) in
      let kst f = med (fun ((res : Algorithms.Kcore.result), _) -> f res.stats) in
      M.metric r "kcore.s" "s" (med snd);
      M.metric r "kcore.rounds" "count" (kst (fun s -> float_of_int s.Ordered.Stats.rounds));
      M.metric r "kcore.bucket_inserts" "count" (kst (fun s -> float_of_int s.bucket_inserts));
      M.metric r "kcore.sync_s" "s" (kst (fun s -> s.sync_seconds))

let run ~cfg ~seconds ~traced ~bin =
  let r = M.create () in
  (* Only the last setup's graph is kept; earlier ones are timed and
     dropped so they do not inflate the peak resident set. *)
  let rec setups k acc =
    Gc.compact ();
    let q = setup cfg in
    let acc = (q.wall, q.phases) :: acc in
    if k = 1 then (q, acc) else setups (k - 1) acc
  in
  let p, preps = setups setup_reps [] in
  Gc.compact ();
  let m = Graphs.Csr.num_edges p.csr in
  let sources = sources_of cfg p.csr in
  let num_sources = Array.length sources in
  let pool = Parallel.Pool.create ~num_workers:2 () in
  let sssp ?trace ~pool i =
    let s = sources.(i mod num_sources) in
    let res, t =
      M.time (fun () ->
          Algorithms.Sssp_delta.run ~pool ~graph:p.csr ~handle:p.handle
            ~schedule:cfg.schedule ~source:s ?trace ())
    in
    M.check r (Inputs.matches (dist_oracle cfg s) res.dist)
      (Printf.sprintf "sssp distances from %d" s);
    (res, t)
  in
  let kcore () =
    Option.map
      (fun sym ->
        let res, t =
          M.time (fun () -> Algorithms.Kcore.run ~pool ~graph:sym ~schedule:kcore_schedule ())
        in
        M.check r (Inputs.matches (core_oracle cfg) res.coreness) "k-core coreness";
        (res, t))
      p.sym
  in
  let cli k =
    if traced then []
    else List.init M.cli_reps (fun i -> cli_row r cfg ~bin ~csr:p.csr ~source:sources.(k + i))
  in
  let cli_before = cli 0 in
  (* The timed loop runs whole trials: one SSSP from each source, then
     (social-analytics) one k-core. Other load on a shared machine only
     ever slows a trial down, so each end-to-end query metric is taken
     from the trial where it is best; every trial asks the same queries,
     so that cannot favour a cheaper mix. *)
  let trials = ref [] and overheads = ref [] and traces = ref [] in
  let t_end = M.now () +. seconds in
  while M.now () < t_end || List.length !trials < min_trials do
    let times =
      List.init num_sources (fun k ->
          let _, t = sssp ~pool k in
          if traced then begin
            let trace = Ordered.Trace.create () in
            let res, t' = sssp ~trace ~pool k in
            (* Paired with the untraced run of the same source just
               before it. *)
            overheads := ((t' -. t) /. t) :: !overheads;
            traces := (trace, res, t') :: !traces
          end;
          t)
    in
    let kcores = Option.to_list (kcore ()) in
    trials := (times, kcores) :: !trials
  done;
  let times = List.concat_map fst !trials and kcores = List.concat_map snd !trials in
  let setup_s = M.median (List.map fst preps) in
  if not traced then begin
    let cli = cli_before @ cli M.cli_reps in
    let best f = List.fold_left (fun a t -> Float.max a (f t)) neg_infinity !trials in
    M.metric r "setup_s" "s" setup_s;
    M.metric r "query_ms_p50" "ms" (-.best (fun (ts, _) -> -1000. *. M.median ts));
    (* SSSP queries and k-cores per second of their run time. *)
    M.metric r "throughput_qps" "q/s"
      (best (fun (ts, ks) ->
           float_of_int (List.length ts + List.length ks) /. (M.sum ts +. M.sum (List.map snd ks))));
    M.metric r "cli_wall_s" "s" (List.fold_left Float.min infinity cli);
    M.metric r "peak_rss_mb" "MB" (M.peak_rss_mb "self")
  end
  else begin
    let med f xs = M.median (List.map f xs) in
    (* Setup split: the median of each phase over the repetitions, and
       what no phase covers. *)
    List.iter
      (fun (name, _) ->
        M.metric r name "s" (med (fun (_, ph) -> List.assoc name ph) preps))
      p.phases;
    M.residual r "setup_unattributed_s" "s"
      ~value:(med (fun (w, ph) -> w -. M.sum (List.map snd ph)) preps)
      ~total:setup_s;
    M.metric r "graphs.cli_load_s" "s" (M.median [ cli_load cfg; cli_load cfg ]);
    M.metric r "graphs.bytes" "bytes"
      (float_of_int
         (Inputs.csr_bytes p.csr
         + match p.sym with Some s -> Inputs.csr_bytes s | None -> 0));
    let q50 = M.median times in
    (* The plain single-worker baseline over the same sources. *)
    let one = Parallel.Pool.create ~num_workers:1 () in
    let single = List.init num_sources (fun k -> snd (sssp ~pool:one k)) in
    Parallel.Pool.shutdown one;
    engine_layers r ~m ~q50 ~single_q50:(M.median single) !traces;
    kcore_layers r kcores;
    M.metric r "trace_overhead_frac" "ratio" (M.median !overheads)
  end;
  Parallel.Pool.shutdown pool;
  r

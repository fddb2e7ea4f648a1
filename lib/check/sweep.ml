module Pool = Parallel.Pool
module Csr = Graphs.Csr
module Edge_list = Graphs.Edge_list
module Coords = Graphs.Coords
module Layout = Graphs.Layout
module Reorder = Graphs.Reorder
module Handle = Graphs.Handle
module Graph_bin = Graphs.Graph_bin
module Schedule = Ordered.Schedule
module Rng = Support.Rng

type app = Sssp | Wbfs | Ppsp | Astar | Kcore | Setcover

let all_apps = [ Sssp; Wbfs; Ppsp; Astar; Kcore; Setcover ]

let app_to_string = function
  | Sssp -> "sssp"
  | Wbfs -> "wbfs"
  | Ppsp -> "ppsp"
  | Astar -> "astar"
  | Kcore -> "kcore"
  | Setcover -> "setcover"

let app_of_string = function
  | "sssp" -> Ok Sssp
  | "wbfs" -> Ok Wbfs
  | "ppsp" -> Ok Ppsp
  | "astar" -> Ok Astar
  | "kcore" -> Ok Kcore
  | "setcover" -> Ok Setcover
  | s -> Error (Printf.sprintf "unknown app %S" s)

(* ---------------- substrate variants ---------------- *)

(* The storage-substrate axis: every schedule-space point can additionally
   run on a compressed layout, a reordered vertex numbering, and/or a
   graph that took a save-bin -> load-bin round trip. The oracles judge
   the app on the {e same} transformed graph, so a variant failure
   isolates the substrate, not the algorithm. *)
type variant = {
  layout : Layout.kind;
  reorder : Reorder.kind;
  bin_roundtrip : bool;
}

let default_variant =
  { layout = Layout.Plain; reorder = Reorder.Identity; bin_roundtrip = false }

let default_variants =
  [
    default_variant;
    { default_variant with layout = Layout.Compressed };
    { default_variant with reorder = Reorder.Degree };
    {
      default_variant with
      layout = Layout.Compressed;
      reorder = Reorder.Degree;
    };
    { default_variant with bin_roundtrip = true };
  ]

let variant_to_flags v =
  String.concat ""
    [
      (if v.layout = Layout.Plain then ""
       else " --layout " ^ Layout.kind_to_string v.layout);
      (if v.reorder = Reorder.Identity then ""
       else " --reorder " ^ Reorder.kind_to_string v.reorder);
      (if v.bin_roundtrip then " --bin" else "");
    ]

(* ---------------- schedule <-> repro string ---------------- *)

let schedule_to_string (s : Schedule.t) =
  Printf.sprintf
    "strategy=%s,delta=%d,threshold=%d,buckets=%d,traversal=%s,chunk=%d,sched=%s,incr=%g"
    (Schedule.strategy_to_string s.Schedule.strategy)
    s.Schedule.delta s.Schedule.fusion_threshold s.Schedule.num_open_buckets
    (Schedule.traversal_to_string s.Schedule.traversal)
    s.Schedule.chunk_size
    (Schedule.sched_to_string s.Schedule.sched)
    s.Schedule.incremental_threshold

let ( let* ) = Result.bind

let schedule_of_string str =
  let* fields =
    List.fold_left
      (fun acc kv ->
        let* acc = acc in
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "schedule: expected key=value, got %S" kv)
        | Some i ->
            Ok
              (( String.sub kv 0 i,
                 String.sub kv (i + 1) (String.length kv - i - 1) )
              :: acc))
      (Ok [])
      (String.split_on_char ',' str)
  in
  let int_of key v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "schedule: %s is not an integer: %S" key v)
  in
  let* s =
    List.fold_left
      (fun acc (key, v) ->
        let* s = acc in
        match key with
        | "strategy" ->
            let* strategy = Schedule.strategy_of_string v in
            Ok { s with Schedule.strategy }
        | "delta" ->
            let* delta = int_of key v in
            Ok { s with Schedule.delta }
        | "threshold" ->
            let* fusion_threshold = int_of key v in
            Ok { s with Schedule.fusion_threshold }
        | "buckets" ->
            let* num_open_buckets = int_of key v in
            Ok { s with Schedule.num_open_buckets }
        | "traversal" ->
            let* traversal = Schedule.traversal_of_string v in
            Ok { s with Schedule.traversal }
        | "chunk" ->
            let* chunk_size = int_of key v in
            Ok { s with Schedule.chunk_size }
        | "sched" ->
            let* sched = Schedule.sched_of_string v in
            Ok { s with Schedule.sched }
        | "incr" -> (
            match float_of_string_opt v with
            | Some incremental_threshold ->
                Ok { s with Schedule.incremental_threshold }
            | None ->
                Error (Printf.sprintf "schedule: %s is not a float: %S" key v))
        | _ -> Error (Printf.sprintf "schedule: unknown key %S" key))
      (Ok Schedule.default) fields
  in
  Schedule.validate s

(* ---------------- one configuration ---------------- *)

type config = {
  app : app;
  spec : Graph_case.spec;
  schedule : Schedule.t;
  workers : int;
  variant : variant;
}

let repro_line ?(chaos = false) ~seed config =
  Printf.sprintf
    "check_runner --seed %d --app %s --graph '%s' --workers %d --schedule '%s'%s%s"
    seed (app_to_string config.app)
    (Graph_case.to_string config.spec)
    config.workers
    (schedule_to_string config.schedule)
    (variant_to_flags config.variant)
    (if chaos then " --chaos" else "")

(* A case prepared under one variant: the transformed edge list plus the
   handles every (app, schedule, workers) point over it shares. Handles
   cache the transpose and compressed forms, so a sweep of hundreds of
   schedules pays each conversion once instead of once per run. *)
type prepared = {
  p_case : Graph_case.t;
  p_directed : Handle.t;
  p_symmetric : Handle.t Lazy.t; (* k-core / set cover *)
}

let prepare ?(variant = default_variant) (case : Graph_case.t) =
  let* case =
    if variant.reorder = Reorder.Identity then Ok case
    else
      let csr = Csr.of_edge_list case.Graph_case.el in
      let* r =
        Reorder.of_kind variant.reorder ~csr ~coords:case.Graph_case.coords
      in
      Ok
        {
          case with
          Graph_case.el = Reorder.apply_edge_list r case.Graph_case.el;
          coords = Option.map (Reorder.apply_coords r) case.Graph_case.coords;
        }
  in
  let csr = Csr.of_edge_list case.Graph_case.el in
  let* csr =
    if not variant.bin_roundtrip then Ok csr
    else
      (* Save, reload, and require the loaded graph to be identical —
         then run the apps on the loaded copy, so a subtle codec bug also
         has to survive the oracles. *)
      let path = Filename.temp_file "graphbin_check" ".bin" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          match
            Graph_bin.save path ~layout:variant.layout csr;
            Graph_bin.load_csr path
          with
          | loaded ->
              if Csr.to_edge_list loaded = Csr.to_edge_list csr then Ok loaded
              else Error "graph_bin round-trip changed the graph"
          | exception exn ->
              Error ("graph_bin round-trip: " ^ Printexc.to_string exn))
  in
  Ok
    {
      p_case = case;
      p_directed = Handle.create ~kind:variant.layout csr;
      p_symmetric = lazy (Handle.create ~kind:variant.layout (Csr.symmetrize csr));
    }

(* Run one (app, graph, schedule) point on [pool] and judge the result.
   Engine exceptions are failures like any mismatch — a schedule that
   crashes is as broken as one that returns wrong distances, and both
   should shrink. *)
let run_prepared ?(oracle = Oracle.default) ~pool app prepared schedule =
  match Schedule.validate schedule with
  | Error msg -> Error ("invalid schedule: " ^ msg)
  | Ok schedule -> (
      let case = prepared.p_case in
      let judge () =
        match app with
        | Sssp | Wbfs | Ppsp | Astar -> (
            let handle = prepared.p_directed in
            let graph = Handle.csr handle in
            let n = Csr.num_vertices graph in
            let source = 0 and target = n - 1 in
            match app with
            | Sssp ->
                let r =
                  Algorithms.Sssp_delta.run ~pool ~graph ~handle ~schedule
                    ~source ()
                in
                oracle.Oracle.sssp graph ~source r.Algorithms.Sssp_delta.dist
            | Wbfs ->
                let r =
                  Algorithms.Wbfs.run ~pool ~graph ~handle ~schedule ~source ()
                in
                oracle.Oracle.sssp graph ~source r.Algorithms.Sssp_delta.dist
            | Ppsp ->
                let r =
                  Algorithms.Ppsp.run ~pool ~graph ~handle ~schedule ~source
                    ~target ()
                in
                oracle.Oracle.ppsp graph ~source ~target
                  r.Algorithms.Ppsp.distance
            | Astar -> (
                match case.Graph_case.coords with
                | None -> Error "astar requires a graph with coordinates"
                | Some coords ->
                    let r =
                      Algorithms.Astar.run ~pool ~graph ~coords ~handle
                        ~schedule ~source ~target ()
                    in
                    oracle.Oracle.ppsp graph ~source ~target
                      r.Algorithms.Astar.distance)
            | Kcore | Setcover -> assert false)
        | Kcore ->
            let handle = Lazy.force prepared.p_symmetric in
            let graph = Handle.csr handle in
            let r = Algorithms.Kcore.run ~pool ~graph ~handle ~schedule () in
            oracle.Oracle.kcore graph r.Algorithms.Kcore.coreness
        | Setcover ->
            let handle = Lazy.force prepared.p_symmetric in
            let graph = Handle.csr handle in
            let r = Algorithms.Setcover.run ~pool ~graph ~handle ~schedule () in
            oracle.Oracle.setcover graph r
      in
      match judge () with
      | result -> result
      | exception exn -> Error ("exception: " ^ Printexc.to_string exn))

let run_one ?oracle ?variant ~pool app (case : Graph_case.t) schedule =
  match prepare ?variant case with
  | Error msg -> Error ("prepare: " ^ msg)
  | Ok prepared -> run_prepared ?oracle ~pool app prepared schedule

(* ---------------- shrinking ---------------- *)

let coords_list coords =
  List.init (Coords.num_vertices coords) (fun v ->
      (Coords.x coords v, Coords.y coords v))

let explicit_spec ~num_vertices ~coords edges =
  Graph_case.Explicit { num_vertices; edges = Array.to_list edges; coords }

(* ddmin over the edge array: delete complements/chunks while the failure
   persists, then trim unused trailing vertices. [check] re-runs the full
   app-vs-oracle judgement, so whatever property failed is the property
   being preserved. Probe count is bounded; each probe is one app run on
   an ever-smaller graph. *)
let shrink ~check (case : Graph_case.t) =
  let coords = Option.map coords_list case.Graph_case.coords in
  let num_vertices = case.Graph_case.el.Edge_list.num_vertices in
  let to_spec = explicit_spec ~num_vertices ~coords in
  let probes = ref 0 in
  let max_probes = 400 in
  let still_fails edges =
    incr probes;
    !probes <= max_probes && check (Graph_case.build (to_spec edges))
  in
  let edges =
    Array.map
      (fun e -> (e.Edge_list.src, e.Edge_list.dst, e.Edge_list.weight))
      case.Graph_case.el.Edge_list.edges
  in
  let rec ddmin edges granularity =
    let len = Array.length edges in
    if len <= 1 || granularity > len then edges
    else begin
      let chunk = (len + granularity - 1) / granularity in
      let complements =
        List.init granularity (fun i ->
            let lo = i * chunk and hi = min len ((i + 1) * chunk) in
            Array.append (Array.sub edges 0 lo)
              (Array.sub edges hi (len - hi)))
      in
      match List.find_opt still_fails complements with
      | Some smaller -> ddmin smaller (max 2 (granularity - 1))
      | None ->
          if granularity >= len then edges
          else ddmin edges (min len (2 * granularity))
    end
  in
  let edges =
    if Array.length edges > 0 && still_fails [||] then [||]
    else ddmin edges 2
  in
  (* Trim vertices past the last edge endpoint (A* keeps its coordinate
     prefix). [check] guards the trim: source/target are derived from n,
     so shrinking n changes the query, and the failure must survive it. *)
  let used =
    Array.fold_left (fun acc (s, d, _) -> max acc (max s d)) (-1) edges + 1
  in
  let spec =
    if used >= 1 && used < num_vertices then begin
      let trimmed =
        Graph_case.Explicit
          {
            num_vertices = used;
            edges = Array.to_list edges;
            coords =
              Option.map (fun cs -> List.filteri (fun i _ -> i < used) cs)
                coords;
          }
      in
      incr probes;
      if check (Graph_case.build trimmed) then trimmed else to_spec edges
    end
    else to_spec edges
  in
  if spec = case.Graph_case.spec then None else Some spec

(* ---------------- the sweep ---------------- *)

type failure = {
  config : config;
  message : string;
  shrunk : Graph_case.spec option;
  repro : string;
}

type summary = {
  configs_run : int;
  per_app : (app * int) list;
  failures : failure list;
  elapsed_seconds : float;
  budget_exhausted : bool;
  race_findings : int;
}

let default_specs ~seed =
  [
    Graph_case.Random { seed; n = 48; m = 200; max_w = 12 };
    Graph_case.Random { seed = seed + 1; n = 64; m = 120; max_w = 5 };
    Graph_case.Dup_edges { seed = seed + 2; n = 24; m = 60; max_w = 9 };
    Graph_case.Road { seed = seed + 3; rows = 5; cols = 6 };
    Graph_case.Road { seed = seed + 4; rows = 3; cols = 3 };
    Graph_case.Path 13;
    Graph_case.Cycle 9;
    Graph_case.Star 16;
    Graph_case.Complete 8;
    Graph_case.Edgeless 6;
    Graph_case.Edgeless 1;
    Graph_case.Self_loops 8;
  ]

let strategies = function
  | Kcore ->
      [
        Schedule.Eager_with_fusion; Schedule.Eager_no_fusion; Schedule.Lazy;
        Schedule.Lazy_constant_sum;
      ]
  | Sssp | Wbfs | Ppsp | Astar | Setcover ->
      [ Schedule.Eager_with_fusion; Schedule.Eager_no_fusion; Schedule.Lazy ]

let deltas app graph =
  match app with
  (* wBFS pins Δ = 1 itself; k-core and set cover tolerate no coarsening. *)
  | Wbfs | Kcore | Setcover -> [ 1 ]
  | Sssp | Ppsp | Astar ->
      (* 1, 2, 8 plus Δ* — the max edge weight, a stand-in for the tuned
         Δ (road schedules in the paper sit near the weight scale). *)
      List.sort_uniq compare [ 1; 2; 8; max 1 (Csr.max_weight graph) ]

let traversals app strategy =
  match (app, strategy) with
  | (Sssp | Wbfs | Ppsp | Astar), (Schedule.Lazy | Schedule.Lazy_constant_sum)
    ->
      [ Schedule.Sparse_push; Schedule.Dense_pull; Schedule.Hybrid ]
  (* k-core and set cover drive push-only kernels (no transpose plumbed). *)
  | _ -> [ Schedule.Sparse_push ]

let bucket_counts = function
  | Schedule.Lazy | Schedule.Lazy_constant_sum -> [ 32; 512 ]
  | Schedule.Eager_with_fusion | Schedule.Eager_no_fusion -> [ 128 ]

let fusion_thresholds = function
  | Schedule.Eager_with_fusion -> [ 1; 1000 ]
  | _ -> [ 1000 ]

let scheds =
  [ None; Some Pool.Static; Some Pool.Dynamic; Some Pool.Guided ]

(* The systematic cross-product for one (app, graph) pair, plus a few
   Autotune.Search_space samples so the corners the grid leaves out
   (huge Δ, odd chunk sizes) still get visited. *)
let schedules ~seed app graph =
  let grid =
    List.concat_map
      (fun strategy ->
        List.concat_map
          (fun delta ->
            List.concat_map
              (fun traversal ->
                List.concat_map
                  (fun num_open_buckets ->
                    List.concat_map
                      (fun fusion_threshold ->
                        List.map
                          (fun sched ->
                            {
                              Schedule.default with
                              Schedule.strategy;
                              delta;
                              traversal;
                              num_open_buckets;
                              fusion_threshold;
                              sched;
                            })
                          scheds)
                      (fusion_thresholds strategy))
                  (bucket_counts strategy))
              (traversals app strategy))
          (deltas app graph))
      (strategies app)
  in
  let rng = Rng.create (seed * 31 + Hashtbl.hash (app_to_string app)) in
  let space =
    {
      Autotune.Search_space.default with
      Autotune.Search_space.strategies = strategies app;
    }
  in
  let sampled =
    List.init 6 (fun _ -> Autotune.Search_space.random space rng)
    |> List.filter_map (fun s ->
           (* The sampler does not know app constraints: clamp Δ for the
              Δ-less apps and direction for the push-only ones. *)
           let s =
             match app with
             | Wbfs | Kcore | Setcover -> { s with Schedule.delta = 1 }
             | _ -> s
           in
           let s =
             if List.mem s.Schedule.traversal (traversals app s.Schedule.strategy)
             then s
             else { s with Schedule.traversal = Schedule.Sparse_push }
           in
           match Schedule.validate s with Ok s -> Some s | Error _ -> None)
  in
  grid @ sampled

exception Stop

let run ?oracle ?(apps = all_apps) ?specs ?(variants = default_variants)
    ?(workers = [ 1; 2; 4 ]) ?(budget = 60.) ?(seed = 0) ?(max_failures = 5)
    ?(chaos = false) ?(race = false) ?(log = fun _ -> ()) () =
  let specs =
    match specs with Some s -> s | None -> default_specs ~seed
  in
  let variants = if variants = [] then [ default_variant ] else variants in
  let workers = List.sort_uniq compare workers in
  if chaos then Parallel.Chaos.enable ~seed;
  if race then begin
    Parallel.Race.clear ();
    Parallel.Race.enable ()
  end;
  let pools =
    List.map (fun w -> (w, Pool.create ~num_workers:w ())) workers
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, p) -> Pool.shutdown p) pools;
      if chaos then Parallel.Chaos.disable ();
      if race then Parallel.Race.disable ())
    (fun () ->
      let start = Unix.gettimeofday () in
      let elapsed () = Unix.gettimeofday () -. start in
      let configs_run = ref 0 in
      let per_app = Hashtbl.create 8 in
      let failures = ref [] in
      let budget_exhausted = ref false in
      let cases =
        List.map (fun spec -> (spec, Graph_case.build spec)) specs
      in
      (try
         (* Specs outer, then substrate variants, then apps: if the budget
            dies mid-sweep, every app has still run on the earlier graphs,
            and each (graph, variant) pays its transforms once for all the
            apps and schedules over it. *)
         List.iter
           (fun (spec, case) ->
             List.iter
               (fun variant ->
                 let record_failure config message shrunk =
                   let repro_spec =
                     Option.value ~default:config.spec shrunk
                   in
                   let repro =
                     repro_line ~chaos ~seed { config with spec = repro_spec }
                   in
                   log ("repro: " ^ repro);
                   failures := { config; message; shrunk; repro } :: !failures;
                   if List.length !failures >= max_failures then raise Stop
                 in
                 match prepare ~variant case with
                 | Error message ->
                     (* A substrate transform that fails is a finding in
                        its own right (codec or permutation bug). *)
                     log
                       (Printf.sprintf "FAIL prepare on %s%s: %s"
                          (Graph_case.to_string spec)
                          (variant_to_flags variant) message);
                     record_failure
                       {
                         app = List.hd apps;
                         spec;
                         schedule = Schedule.default;
                         workers = List.hd workers;
                         variant;
                       }
                       ("prepare: " ^ message) None
                 | Ok prepared ->
                     List.iter
                       (fun app ->
                         match (app, case.Graph_case.coords) with
                         | Astar, None -> ()
                         | _ ->
                             let graph = Handle.csr prepared.p_directed in
                             List.iter
                               (fun schedule ->
                                 List.iter
                                   (fun (w, pool) ->
                                     if elapsed () > budget then begin
                                       budget_exhausted := true;
                                       raise Stop
                                     end;
                                     incr configs_run;
                                     Hashtbl.replace per_app app
                                       (1
                                       + Option.value ~default:0
                                           (Hashtbl.find_opt per_app app));
                                     match
                                       run_prepared ?oracle ~pool app prepared
                                         schedule
                                     with
                                     | Ok () -> ()
                                     | Error message ->
                                         let config =
                                           {
                                             app;
                                             spec;
                                             schedule;
                                             workers = w;
                                             variant;
                                           }
                                         in
                                         log
                                           (Printf.sprintf "FAIL %s on %s%s: %s"
                                              (app_to_string app)
                                              (Graph_case.to_string spec)
                                              (variant_to_flags variant)
                                              message);
                                         (* Shrink probes re-apply the
                                            variant to each candidate, so
                                            the minimized case still fails
                                            under the same substrate. *)
                                         let check c =
                                           Result.is_error
                                             (run_one ?oracle ~variant ~pool
                                                app c schedule)
                                         in
                                         let shrunk = shrink ~check case in
                                         record_failure config message shrunk)
                                   pools)
                               (schedules ~seed app graph))
                       apps)
               variants)
           cases
       with Stop -> ());
      {
        configs_run = !configs_run;
        per_app =
          List.filter_map
            (fun app ->
              Option.map (fun n -> (app, n)) (Hashtbl.find_opt per_app app))
            all_apps;
        failures = List.rev !failures;
        elapsed_seconds = elapsed ();
        budget_exhausted = !budget_exhausted;
        race_findings = (if race then Parallel.Race.num_findings () else 0);
      })

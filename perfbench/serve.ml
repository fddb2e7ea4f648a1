(* The two service workloads: the real ordered_serve binary over a unix
   socket, driven by two closed-loop client connections with a seeded
   read mix (serve-read), plus seeded reweight commits from one of them
   (serve-mutate). Replies are checked after the run against a point
   oracle on the graph version each reply stamps. *)

module M = Measure
module Json = Support.Json
module S = Ordered.Schedule

let rows = 500
let cols = 500
let spec ~seed = { Inputs.kind = Road { rows; cols }; seed }
let setup_reps = 3

(* Full SSSP sources for the traced run's engine-layer replay. *)
let engine_sources = 6
let schedule = { S.default with strategy = S.Eager_with_fusion; delta = 256 }

(* Other load on a shared machine only ever slows the server down, and
   it comes and goes within seconds, so the end-to-end serve figures
   come from the best stretch of the run: the read median from the
   [p50_window] (sliding by [step], with at least [min_window_reads]
   reads sent in it) where it is lowest, and the read throughput from
   the [qps_window] where it is highest. In serve-mutate client 0
   commits one reweight batch of [batch_ops] ops every [commit_period]
   seconds, half a period in: each commit stalls the single batcher (CSR
   rebuild, ALT repair) and retires the k-core cache, so the next kcore
   read re-peels. A throughput window one period long holds one
   commit's stall wherever it starts. Every second commit reaches
   [compact_ops], so compactions run too. *)
let p50_window = 1.0
let min_window_reads = 50
let step = 0.05
let commit_period = 5.0
let qps_window ~mutate = if mutate then commit_period else 2.0
let batch_ops = 64
let compact_ops = 2 * batch_ops

let server_args ~bin ~spec ~socket ~mutate =
  ( Filename.concat bin "ordered_serve.exe",
    [
      "serve"; Inputs.graph_path spec; "--socket"; socket; "-j"; "2"; "--landmarks"; "4";
      "--coords"; Inputs.coords_path spec; "--compact-ops";
      string_of_int (if mutate then compact_ops else 0);
    ]
    @ Batch.schedule_flags schedule )

type server = { pid : int; out : in_channel }

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let spawn ~bin ~spec ~socket ~mutate =
  let exe, args = server_args ~bin ~spec ~socket ~mutate in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  (* The readiness line comes after load and pool start. *)
  let rec wait () =
    let line = input_line out in
    if String.length line < 12 || String.sub line 0 12 <> "listening on" then wait ()
  in
  (try wait ()
   with End_of_file -> failwith "ordered_serve exited before listening");
  { pid; out }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c req =
  output_string c.oc (Json.to_string req);
  output_char c.oc '\n'

let receive c =
  match Json.of_string (input_line c.ic) with
  | Ok j -> j
  | Error e -> failwith ("unparseable reply: " ^ e)

(* One closed-loop exchange: send a request line, wait for its reply. *)
let call c req =
  send c req;
  flush c.oc;
  receive c

let req id op fields = Json.Obj ([ ("id", Json.Int id); ("op", Json.String op) ] @ fields)

let field path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let num path j =
  match field path j with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> nan

let int_field path j = match field path j with Some (Json.Int i) -> Some i | _ -> None
let status j = match field [ "status" ] j with Some (Json.String s) -> s | _ -> "missing"

(* The server's metrics, read back from a [stats] reply. *)
let snapshot_of stats =
  let obj path =
    match field ("result" :: "metrics" :: path) stats with Some (Json.Obj kv) -> kv | _ -> []
  in
  let int = function Some (Json.Int i) -> i | _ -> 0 in
  let buckets = function
    | Some (Json.List bs) ->
        List.filter_map (function Json.List [ Json.Int b; Json.Int n ] -> Some (b, n) | _ -> None) bs
    | _ -> []
  in
  {
    Observe.Metrics.counters = List.map (fun (k, v) -> (k, int (Some v))) (obj [ "counters" ]);
    histograms =
      List.map
        (fun (k, h) ->
          let g f = int (Json.member f h) in
          ( k,
            {
              Observe.Metrics.count = g "count";
              total_ns = g "total_ns";
              min_ns = g "min_ns";
              max_ns = g "max_ns";
              buckets = buckets (Json.member "buckets" h);
            } ))
        (obj [ "histograms" ]);
  }

let stop server conn =
  ignore (call conn (req 0 "shutdown" []));
  close_conn conn;
  (try
     while true do
       ignore (input_line server.out)
     done
   with End_of_file -> ());
  close_in server.out;
  ignore (Unix.waitpid [] server.pid)

(* ------------------------------------------------------------------ *)
(* The seeded request mix                                              *)

type query =
  | Ppsp of int * int
  | Astar of int * int
  | Kcore of int
  | Mutate of Graphs.Delta.batch

(* A target 1–4 rows away from [s], within two columns. *)
let local_target rng s =
  let r = s / cols and c = s mod cols in
  let k = 1 + Support.Rng.int rng 4 in
  let r' = if r + k < rows then r + k else r - k in
  let c' = max 0 (min (cols - 1) (c - 2 + Support.Rng.int rng 5)) in
  (r' * cols) + c'

(* Far A* queries run from one of [far_sources] seeded sources to a
   fresh target 40–80 rows away. Many targets keep the per-seed cost
   steady; few sources keep the oracle to one Dijkstra per source. *)
let far_sources rng = Array.init 8 (fun _ -> Support.Rng.int rng (rows * cols))

let far_target rng s =
  let r = s / cols and c = s mod cols in
  let k = 40 + Support.Rng.int rng 41 in
  let r' = if r + k < rows then r + k else r - k in
  let c' = max 0 (min (cols - 1) (c - 20 + Support.Rng.int rng 41)) in
  (r' * cols) + c'

(* Reweights only raise weights above the generated ones, so the
   coordinate heuristic stays admissible and the topology (hence
   coreness) never changes. *)
let reweights rng csr0 =
  Array.init batch_ops (fun _ ->
      let u = Support.Rng.int rng (Graphs.Csr.num_vertices csr0) in
      let lo, hi = Graphs.Csr.edge_range csr0 u in
      let i = lo + Support.Rng.int rng (hi - lo) in
      Graphs.Delta.Reweight
        {
          src = u;
          dst = Graphs.Csr.edge_target csr0 i;
          weight = Graphs.Csr.edge_weight csr0 i * (2 + Support.Rng.int rng 3);
        })

let next_query rng ~far ~csr0 ~commit =
  if commit then Mutate (reweights rng csr0)
  else
    let n = rows * cols in
    let x = Support.Rng.int rng 100 in
    if x < 60 then
      let s = Support.Rng.int rng n in
      Ppsp (s, local_target rng s)
    else if x < 80 then
      let s = Support.Rng.int rng n in
      Astar (s, local_target rng s)
    else if x < 90 then
      let s = far.(Support.Rng.int rng (Array.length far)) in
      Astar (s, far_target rng s)
    else Kcore (Support.Rng.int rng n)

let to_request id = function
  | Ppsp (s, t) -> req id "ppsp" [ ("source", Json.Int s); ("target", Json.Int t) ]
  | Astar (s, t) -> req id "astar" [ ("source", Json.Int s); ("target", Json.Int t) ]
  | Kcore v -> req id "kcore" [ ("vertex", Json.Int v) ]
  | Mutate b -> req id "mutate" [ ("ops", Json.String (Graphs.Delta.to_string b)) ]

type reply = {
  q : query;
  client : int;
  client_ms : float;
  sent : float;  (* seconds into the timed run *)
  answered : float;
  json : Json.t;
  polled : bool;
}

let stats_id = 999_999

(* Two closed-loop clients, one thread each, for [seconds]. In a traced
   run client 0 sends a [stats] request just ahead of every other
   request, on the same connection: the telemetry poll whose cost
   [trace_overhead_frac] reports, as the latency of those requests over
   that of the interleaved unpolled ones. A client that loses its
   connection or reads a garbled reply stops; what it already received
   is kept, and the error is returned for the oracle gate. *)
let drive ~socket ~seed ~seconds ~csr0 ~far ~mutate ~traced =
  let t_start = M.now () in
  let t_end = t_start +. seconds in
  let client k () =
    let acc = ref [] in
    let i = ref 0 and committed = ref 0 in
    let rng = Support.Rng.create ((seed * 1009) + k) in
    let error =
      match connect socket with
      | exception e -> Some (Printexc.to_string e)
      | conn ->
          let error =
            try
              while M.now () < t_end do
                let t0 = M.now () in
                let commit =
                  mutate && k = 0 && t0 -. t_start > (float_of_int !committed +. 0.5) *. commit_period
                in
                if commit then incr committed;
                let q = next_query rng ~far ~csr0 ~commit in
                let id = (k * 1_000_000) + !i in
                let polled = traced && k = 0 && !i mod 2 = 1 in
                if polled then send conn (req stats_id "stats" []);
                send conn (to_request id q);
                flush conn.oc;
                (* The stats reply may come first; the request's own reply
                   ends its latency. *)
                let rec await stats_due =
                  let j = receive conn in
                  let got = int_field [ "id" ] j in
                  if got = Some id then (j, M.now (), stats_due)
                  else if stats_due && got = Some stats_id then await false
                  else failwith (Printf.sprintf "reply %s to request %d" (Json.to_string j) id)
                in
                let json, t1, stats_due = await polled in
                if stats_due then ignore (receive conn);
                acc :=
                  {
                    q;
                    client = k;
                    client_ms = (t1 -. t0) *. 1000.;
                    sent = t0 -. t_start;
                    answered = t1 -. t_start;
                    json;
                    polled;
                  }
                  :: !acc;
                incr i
              done;
              None
            with e -> Some (Printexc.to_string e)
          in
          close_conn conn;
          error
    in
    (!acc, error)
  in
  let results = Array.make 2 ([], None) in
  let threads =
    Array.init 2 (fun k -> Thread.create (fun () -> results.(k) <- client k ()) ())
  in
  Array.iter Thread.join threads;
  (List.rev_append (fst results.(0)) (fst results.(1)), Array.to_list (Array.map snd results))

(* The best of [f] over the windows [w] seconds long (at most the run)
   that start every [step] seconds within it; [f] gets each window's
   start and length, and [None] skips the window. *)
let best ~better ~seconds ~w f =
  let w = Float.min w seconds in
  let n = int_of_float (((seconds -. w) /. step) +. 1e-9) in
  List.filter_map (fun k -> f (float_of_int k *. step) w) (List.init (n + 1) Fun.id)
  |> List.fold_left (fun a x -> match a with Some b when not (better x b) -> a | _ -> Some x) None

let in_window s w t = t >= s && t < s +. w

(* ------------------------------------------------------------------ *)
(* The oracle: replay the commits in version order on the benchmark's
   own copy of the graph, and judge every reply on its stamped version. *)

let check_replies r ~csr0 ~coreness ~far replies =
  let null = Bucketing.Bucket_order.null_priority in
  let commits =
    List.filter_map
      (fun rp ->
        match rp.q with
        | Mutate b -> (
            M.check r (status rp.json = "ok") "mutate status";
            match int_field [ "result"; "version" ] rp.json with
            | Some v -> Some (v, b)
            | None -> None)
        | _ -> None)
      replies
    |> List.sort compare
  in
  List.iteri
    (fun i (v, _) -> M.check r (v = i + 1) (Printf.sprintf "commit %d minted version %d" (i + 1) v))
    commits;
  let by_version = Hashtbl.create 16 in
  List.iter
    (fun rp ->
      match rp.q with
      | Mutate _ -> ()
      | _ ->
          let v = Option.value ~default:(-1) (int_field [ "meta"; "version" ] rp.json) in
          Hashtbl.replace by_version v (rp :: Option.value ~default:[] (Hashtbl.find_opt by_version v)))
    replies;
  let memo = Hashtbl.create 64 in
  let judge csr v rp =
    let ok = status rp.json = "ok" in
    match rp.q with
    | Ppsp (s, t) | Astar (s, t) ->
        let expect =
          if Array.mem s far then
            (match Hashtbl.find_opt memo (v, s) with
            | Some d -> d
            | None ->
                let d = Algorithms.Dijkstra.distances csr ~source:s in
                Hashtbl.add memo (v, s) d;
                d).(t)
          else Algorithms.Dijkstra.distance_to csr ~source:s ~target:t
        in
        let got =
          match field [ "result"; "distance" ] rp.json with
          | Some (Json.Int d) -> d
          | _ -> null
        in
        M.check r (ok && got = expect)
          (Printf.sprintf "v%d %d->%d: got %d, oracle %d (%s)" v s t got expect (status rp.json))
    | Kcore x ->
        M.check r
          (ok && int_field [ "result"; "coreness" ] rp.json = Some coreness.(x))
          (Printf.sprintf "v%d coreness of %d (%s)" v x (status rp.json))
    | Mutate _ -> ()
  in
  let apply_s = ref [] in
  let rec walk v csr commits =
    List.iter (judge csr v) (Option.value ~default:[] (Hashtbl.find_opt by_version v));
    Hashtbl.remove by_version v;
    match commits with
    | (_, b) :: rest ->
        let csr', t = M.time (fun () -> Graphs.Delta.apply csr b) in
        apply_s := t :: !apply_s;
        M.check r (Graphs.Csr.targets csr' = Graphs.Csr.targets csr0) "reweight kept topology";
        walk (v + 1) csr' rest
    | [] -> ()
  in
  walk 0 csr0 commits;
  (* Replies stamped with no version, or one never committed. *)
  Hashtbl.iter
    (fun v rps -> List.iter (fun _ -> M.check r false (Printf.sprintf "reply on unknown version %d" v)) rps)
    by_version;
  !apply_s

(* ------------------------------------------------------------------ *)

let run ~mutate ~seed ~seconds ~traced ~bin =
  let r = M.create () in
  let spec = spec ~seed in
  let socket = Filename.concat Inputs.cache_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let csr0 = Graphs.Graph_bin.load_csr (Inputs.graph_path spec) in
  let sym0 = Inputs.symmetrize csr0 in
  let coreness = Algorithms.Kcore_peel_seq.coreness sym0 in
  let probe = Support.Rng.create (seed * 53 + 3) in
  (* Setup: spawn to listening, ALT warm, and the first k-core query
     (which symmetrizes and peels), repeated; the last server stays up. *)
  let setup () =
    let t0 = M.now () in
    let server = spawn ~bin ~spec ~socket ~mutate in
    let ready = M.now () -. t0 in
    let conn = connect socket in
    let _, warm = M.time (fun () -> call conn (req 1 "warm_alt" [])) in
    let x = Support.Rng.int probe (rows * cols) in
    let kc, kcore_first = M.time (fun () -> call conn (req 2 "kcore" [ ("vertex", Json.Int x) ])) in
    M.check r (int_field [ "result"; "coreness" ] kc = Some coreness.(x)) "setup k-core";
    (server, conn, M.now () -. t0, [ ("service.ready_s", ready); ("service.warm_s", warm); ("service.kcore_first_s", kcore_first) ])
  in
  let rec setups k acc =
    let server, conn, wall, phases = setup () in
    let acc = (wall, phases) :: acc in
    if k = 1 then (server, conn, acc)
    else begin
      stop server conn;
      setups (k - 1) acc
    end
  in
  let far = far_sources (Support.Rng.create ((seed * 131) + 7)) in
  (* The CLI row: one far A* query through ordered_run, output checked. *)
  let s = far.(0) in
  let t = far_target (Support.Rng.create seed) s in
  let line = Printf.sprintf "distance %d -> %d = %d" s t (Algorithms.Dijkstra.distance_to csr0 ~source:s ~target:t) in
  let cli () =
    let code, out, seconds =
      M.run_capture (Filename.concat bin "ordered_run.exe")
        ([
           "astar"; Inputs.graph_path spec; "--coords"; Inputs.coords_path spec;
           "--source"; string_of_int s; "--target"; string_of_int t; "-j"; "2";
         ]
        @ Batch.schedule_flags schedule)
    in
    let has_line = List.exists (fun l -> String.trim l = line) (String.split_on_char '\n' out) in
    M.check r (code = 0 && has_line) (Printf.sprintf "ordered_run astar %d -> %d (exit %d)" s t code);
    seconds
  in
  let cli_runs () = if traced then [] else List.init M.cli_reps (fun _ -> cli ()) in
  let cli_before = cli_runs () in
  let server, conn, preps = setups setup_reps [] in
  (* The server's metrics just before and after the timed run: their
     difference covers exactly the run's requests. *)
  let before = call conn (req 3 "stats" []) in
  let replies, errors = drive ~socket ~seed ~seconds ~csr0 ~far ~mutate ~traced in
  let window = Observe.Metrics.diff ~earlier:(snapshot_of before) (snapshot_of (call conn (req 4 "stats" []))) in
  let rss = M.peak_rss_mb (string_of_int server.pid) in
  stop server conn;
  List.iteri
    (fun k e -> M.check r (e = None) (Printf.sprintf "client %d: %s" k (Option.value ~default:"" e)))
    errors;
  let apply_s = check_replies r ~csr0 ~coreness ~far replies in
  let reads = List.filter (fun rp -> match rp.q with Mutate _ -> false | _ -> true) replies in
  let ms = List.map (fun rp -> rp.client_ms) reads in
  if not traced then begin
    let cli = cli_before @ cli_runs () in
    let p50 =
      best ~better:( < ) ~seconds ~w:p50_window (fun s w ->
          let sent = List.filter (fun rp -> in_window s w rp.sent) reads in
          if List.length sent < min_window_reads then None
          else Some (M.median (List.map (fun rp -> rp.client_ms) sent)))
    in
    let qps =
      best ~better:( > ) ~seconds ~w:(qps_window ~mutate) (fun s w ->
          Some (float_of_int (List.length (List.filter (fun rp -> in_window s w rp.answered) reads)) /. w))
    in
    M.metric r "setup_s" "s" (M.median (List.map fst preps));
    M.metric r "query_ms_p50" "ms" (Option.value p50 ~default:(M.median ms));
    M.metric r "throughput_qps" "q/s" (Option.value qps ~default:0.);
    M.metric r "cli_wall_s" "s" (List.fold_left Float.min infinity cli);
    M.metric r "peak_rss_mb" "MB" rss
  end
  else begin
    let med f xs = M.median (List.map f xs) in
    let hist name =
      Option.value (List.assoc_opt name window.histograms)
        ~default:{ Observe.Metrics.count = 0; total_ns = 0; min_ns = 0; max_ns = 0; buckets = [] }
    in
    let total_ms name = float_of_int (hist name).total_ns /. 1e6 in
    let mean_ms name = total_ms name /. float_of_int (max 1 (hist name).count) in
    let p50_ms name = Observe.Metrics.percentile_ns (hist name) 0.5 /. 1e6 in
    let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name window.counters)) in
    (* Setup split: spawn to listening, ALT warm, first k-core, and the
       client-side rest. *)
    List.iter
      (fun name -> M.metric r name "s" (med (fun (_, ph) -> List.assoc name ph) preps))
      [ "service.ready_s"; "service.warm_s"; "service.kcore_first_s" ];
    M.residual r "setup_unattributed_s" "s"
      ~value:(med (fun (w, ph) -> w -. M.sum (List.map snd ph)) preps)
      ~total:(med fst preps);
    (* The server's load and prepare steps, replayed in-process. *)
    let path = Inputs.graph_path spec in
    let timed3 f = M.median (List.init 3 (fun _ -> snd (M.time f))) in
    M.metric r "graphs.load_s" "s" (timed3 (fun () -> ignore (Graphs.Graph_bin.load_csr path)));
    M.metric r "graphs.cli_load_s" "s"
      (timed3 (fun () ->
           ignore (Graphs.Csr.of_edge_list (Graphs.Csr.to_edge_list (Graphs.Graph_bin.load_csr path)))));
    M.metric r "graphs.symmetrize_s" "s"
      (timed3 (fun () ->
           ignore (Inputs.symmetrize csr0)));
    M.metric r "graphs.transpose_s" "s"
      (timed3 (fun () -> Graphs.Handle.prewarm (Graphs.Handle.create csr0)));
    M.metric r "graphs.bytes" "bytes" (float_of_int (Inputs.csr_bytes csr0 + Inputs.csr_bytes sym0));
    (* Engine layers: the server's schedule, full SSSP on version 0. *)
    let handle = Graphs.Handle.create csr0 in
    Graphs.Handle.prewarm handle;
    let sources = Inputs.sources ~rng:(Support.Rng.create (seed * 7919 + 17)) csr0 ~count:engine_sources in
    let oracle = Array.map (fun s -> Algorithms.Dijkstra.distances csr0 ~source:s) sources in
    let sssp ?trace pool i =
      let res, t =
        M.time (fun () ->
            Algorithms.Sssp_delta.run ~pool ~graph:csr0 ~handle ~schedule ~source:sources.(i mod engine_sources)
              ?trace ())
      in
      M.check r (res.dist = oracle.(i mod engine_sources)) "sssp distances";
      (res, t)
    in
    Parallel.Pool.with_pool ~num_workers:2 (fun pool ->
        let times = ref [] and traces = ref [] in
        for i = 0 to 17 do
          times := snd (sssp pool i) :: !times;
          let trace = Ordered.Trace.create () in
          let res, t = sssp ~trace pool i in
          traces := (trace, res, t) :: !traces
        done;
        let single = Parallel.Pool.with_pool ~num_workers:1 (fun one -> List.init 6 (fun i -> snd (sssp one i))) in
        Batch.engine_layers r ~m:(Graphs.Csr.num_edges csr0) ~q50:(M.median !times)
          ~single_q50:(M.median single) !traces;
        Batch.kcore_layers r
          (List.init 3 (fun _ ->
               let res, t = M.time (fun () -> Algorithms.Kcore.run ~pool ~graph:sym0 ~schedule ()) in
               M.check r (res.coreness = coreness) "k-core coreness";
               (res, t)));
        (* The run's point queries, replayed through the library. *)
        let coords = Graphs.Graph_io.read_coords (Inputs.coords_path spec) in
        let points =
          List.filteri (fun i _ -> i < 300)
            (List.filter_map
               (fun rp -> match rp.q with Ppsp _ | Astar _ -> Some rp.q | _ -> None)
               reads)
        in
        let direct =
          List.map
            (fun q ->
              let (d, stats), t =
                M.time (fun () ->
                    match q with
                    | Ppsp (source, target) ->
                        let x = Algorithms.Ppsp.run ~pool ~graph:csr0 ~handle ~schedule ~source ~target () in
                        (x.distance, x.stats)
                    | Astar (source, target) ->
                        let x =
                          Algorithms.Astar.run ~pool ~graph:csr0 ~coords ~handle ~schedule ~source ~target ()
                        in
                        (x.distance, x.stats)
                    | _ -> assert false)
              in
              (match (mutate, q) with
              | false, (Ppsp (s, t') | Astar (s, t')) ->
                  M.check r (d = Algorithms.Dijkstra.distance_to csr0 ~source:s ~target:t') "direct point query"
              | _ -> ());
              (t *. 1000., float_of_int stats.Ordered.Stats.edges_relaxed))
            points
        in
        M.metric r "service.point_direct_ms_p50" "ms" (med fst direct);
        M.metric r "service.point_edges_p50" "count" (med snd direct));
    (* The whole run's tail: p99 once there are 1,000 read replies. *)
    M.metric r "service.client_ms_p99" "ms" (M.percentile ms (M.tail_q (List.length ms)));
    M.metric r "service.client_replies" "count" (float_of_int (List.length ms));
    (* Service layers, from reply meta and the stats op. *)
    let server_ms = List.map (fun rp -> num [ "meta"; "wall_ms" ] rp.json) reads in
    M.metric r "service.server_ms_p50" "ms" (M.median server_ms);
    M.metric r "service.wire_ms_p50" "ms"
      (med (fun rp -> rp.client_ms -. num [ "meta"; "wall_ms" ] rp.json) reads);
    M.metric r "service.queue_wait_ms_p50" "ms" (p50_ms "service.queue_wait");
    M.metric r "service.batch_run_ms_p50" "ms" (p50_ms "service.batch_run");
    (* Server latency (admission to reply, meta.wall_ms) of the run's
       reads and commits, less the queue waits, engine batch runs and
       commits the server timed in the same window; as a mean per reply.
       What is left is what no histogram times: the reply and, after a
       commit, the k-core re-symmetrization. *)
    let served = List.map (fun rp -> num [ "meta"; "wall_ms" ] rp.json) replies in
    let per_reply x = x /. float_of_int (max 1 (List.length served)) in
    M.residual r "service.latency_unattributed_ms" "ms"
      ~value:
        (per_reply
           (M.sum served -. total_ms "service.queue_wait" -. total_ms "service.batch_run"
          -. total_ms "dynamic.commit"))
      ~total:(per_reply (M.sum served));
    M.metric r "service.batch_width_mean" "count"
      (M.mean (List.map (fun rp -> num [ "meta"; "batch_width" ] rp.json) reads));
    let astar = List.filter (fun rp -> match rp.q with Astar _ -> true | _ -> false) reads in
    M.metric r "service.alt_assisted_frac" "ratio"
      (float_of_int
         (List.length (List.filter (fun rp -> field [ "meta"; "alt_assisted" ] rp.json = Some (Json.Bool true)) astar))
      /. float_of_int (max 1 (List.length astar)));
    let count st = float_of_int (List.length (List.filter (fun rp -> status rp.json = st) replies)) in
    M.metric r "service.rejected" "count" (count "rejected");
    M.metric r "service.partial" "count" (count "partial");
    M.metric r "service.kcore_runs" "count" (counter "service.kcore.runs");
    (* Client 0's reads with a stats poll ahead of them, against its
       interleaved reads without one. *)
    let polled w =
      List.filter_map (fun rp -> if rp.client = 0 && rp.polled = w then Some rp.client_ms else None) reads
    in
    let base = M.median (polled false) in
    M.metric r "trace_overhead_frac" "ratio" ((M.median (polled true) -. base) /. base);
    if mutate then begin
      let commits = List.filter (fun rp -> match rp.q with Mutate _ -> true | _ -> false) replies in
      M.metric r "dynamic.commit_ms_mean" "ms" (mean_ms "dynamic.commit");
      M.metric r "dynamic.commit_client_ms_p50" "ms" (med (fun rp -> rp.client_ms) commits);
      M.metric r "dynamic.apply_ms_p50" "ms" (med (fun t -> t *. 1000.) apply_s);
      let refreshed = M.sum (List.map (fun rp -> num [ "result"; "alt_refreshed" ] rp.json) commits) in
      let kept = M.sum (List.map (fun rp -> num [ "result"; "alt_kept" ] rp.json) commits) in
      M.metric r "dynamic.alt_refreshed_frac" "ratio" (refreshed /. Float.max 1. (refreshed +. kept));
      M.metric r "dynamic.compactions" "count" (counter "dynamic.compactions");
      M.metric r "dynamic.compaction_ms_mean" "ms" (mean_ms "dynamic.compaction")
    end
  end;
  Printf.printf "serve: %d read replies, %d commits\n" (List.length reads)
    (List.length replies - List.length reads);
  r

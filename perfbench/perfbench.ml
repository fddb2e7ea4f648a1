(* perfbench: the repository benchmark (see BENCHMARK.json and
   perfbench/README.md). Usage, from the repository root:

     perfbench.exe gen --workload W --seed N
     perfbench.exe run --workload W --seed N --seconds S --trace 0|1 --bin DIR

   [gen] makes the workload's seeded graph and the batch workloads'
   oracle answers (cached, untimed); [run]
   measures it and prints one JSON result as its last stdout line. *)

module Json = Support.Json

let workloads = [ "road-sssp"; "social-analytics"; "serve-read"; "serve-mutate" ]

let batch_config workload ~seed =
  match workload with
  | "road-sssp" -> Some (Batch.road ~seed)
  | "social-analytics" -> Some (Batch.social ~seed)
  | _ -> None

let spec_of workload ~seed =
  match batch_config workload ~seed with
  | Some cfg -> cfg.Batch.spec
  | None -> Serve.spec ~seed

let read_json path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.of_string s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let strings = function
  | Some (Json.List xs) -> List.filter_map (function Json.String s -> Some s | _ -> None) xs
  | _ -> []

(* The (name, unit) of every metric BENCHMARK.json lists for this kind
   of run. *)
let expected_metrics ~traced =
  match Json.member (if traced then "per_layer" else "end_to_end") (read_json "BENCHMARK.json") with
  | Some (Json.List ms) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> Some (n, u)
          | _ -> None)
        ms
  | _ -> failwith "BENCHMARK.json: no metric list"

(* perfbench/model.json names, per workload, the per-layer metrics whose
   layer the workload never enters; those report 0. *)
let bypassed workload =
  match Json.member "bypassed" (read_json "perfbench/model.json") with
  | Some b -> strings (Json.member workload b)
  | None -> []

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then source_files p
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
         else [])

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_line ic)

let commit () =
  if Sys.file_exists ".git" then
    match Measure.run_capture "git" [ "rev-parse"; "HEAD" ] with
    | 0, out, _ -> Json.String (String.trim out)
    | _ -> Json.Null
  else Json.Null

let cpu_caches () =
  let base = "/sys/devices/system/cpu/cpu0/cache" in
  List.filter_map
    (fun i ->
      let f n = read_first_line (Printf.sprintf "%s/index%d/%s" base i n) in
      match (f "level", f "type", f "size") with
      | Some l, Some t, Some s -> Some (Printf.sprintf "L%s-%s" l t, Json.String s)
      | _ -> None)
    [ 0; 1; 2; 3 ]

(* What the result was measured on: printed as one line before the result. *)
let env ~workload ~seed ~spec =
  let csr = Graphs.Graph_bin.load_csr (Inputs.graph_path spec) in
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("graph", Json.String (Inputs.name spec));
      ("n", Json.Int (Graphs.Csr.num_vertices csr));
      ("m", Json.Int (Graphs.Csr.num_edges csr));
      ("bytes", Json.Int (Inputs.csr_bytes csr));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("cpu_caches", Json.Obj (cpu_caches ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", commit ());
      ( "source_digest",
        Json.String
          (Digest.to_hex
             (Digest.string
                (String.concat ""
                   (List.map Digest.file (source_files "lib" @ source_files "bin"))))) );
    ]

(* The traced run's bound checks (perfbench/model.json): every split's
   unattributed share, on either side of zero, against the workload's
   [max_share], and the tracing cost. Each share is printed; a breach is
   reported, and counted in [bound_violations]. *)
let check_bounds ~workload (r : Measure.result) =
  let model = read_json "perfbench/model.json" in
  let number = function
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> infinity
  in
  let bound path =
    number
      (Option.bind
         (Option.bind (Json.member path model) (Json.member "bound"))
         (Json.member workload))
  in
  let residuals =
    match Json.member "residuals" model with Some (Json.Obj kv) -> kv | _ -> []
  in
  let over =
    List.filter_map
      (fun (name, share) ->
        let b =
          number
            (Option.bind
               (Option.bind (List.assoc_opt name residuals) (Json.member "max_share"))
               (Json.member workload))
        in
        Printf.printf "%-34s %16.6g share of its total (bound %g)\n" name share b;
        if Float.abs share > b then
          Some (Printf.sprintf "%s is %.3f of its total (bound %.3f)" name share b)
        else None)
      r.shares
  in
  let over =
    match List.assoc_opt "trace_overhead_frac" r.metrics with
    | Some (v, _) when Float.abs v > bound "trace_overhead" ->
        Printf.sprintf "trace_overhead_frac %.3f (bound %.3f)" v (bound "trace_overhead") :: over
    | _ -> over
  in
  List.iter (Printf.eprintf "perfbench: bound exceeded: %s\n") over;
  Measure.metric r "bound_violations" "count" (float_of_int (List.length over))

let print_result ~workload ~traced (r : Measure.result) =
  let expected = expected_metrics ~traced in
  let skip = if traced then bypassed workload else [] in
  let value (name, unit) =
    match List.assoc_opt name r.metrics with
    | Some (v, u) when u = unit && Float.is_finite v -> Some v
    | Some (v, u) ->
        Printf.eprintf "perfbench: %s = %g %s, BENCHMARK.json wants a finite value in %s\n" name v u unit;
        None
    | None when List.mem name skip -> Some 0.
    | None ->
        Printf.eprintf "perfbench: %s did not measure %s\n" workload name;
        None
  in
  let values = List.map (fun m -> (m, value m)) expected in
  if List.exists (fun (_, v) -> v = None) values then exit 1;
  let metrics =
    List.map
      (fun ((name, unit), v) ->
        let v = Option.get v in
        (* Human-readable row, then the value with all its digits. *)
        Printf.printf "%-34s %16.6g %s\n" name v unit;
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      values
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

let () =
  let args = Array.to_list Sys.argv in
  let opt name default =
    let rec go = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let workload = opt "--workload" "" in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "perfbench: --workload must be one of: %s\n" (String.concat " " workloads);
    exit 2
  end;
  let seed = int_of_string (opt "--seed" "1") in
  let spec = spec_of workload ~seed in
  match args with
  | _ :: "gen" :: _ ->
      (match Inputs.ensure spec with
      | Some s -> Printf.printf "generated %s in %.3f s\n" (Inputs.name spec) s
      | None -> Printf.printf "cached %s\n" (Inputs.name spec));
      Option.iter
        (fun cfg ->
          let (), s = Measure.time (fun () -> Batch.ensure_oracle cfg) in
          Printf.printf "oracle for %s ready in %.3f s\n" (Inputs.name spec) s)
        (batch_config workload ~seed)
  | _ :: "run" :: _ ->
      let seconds = float_of_string (opt "--seconds" "10") in
      let traced = opt "--trace" "0" = "1" in
      let bin = opt "--bin" "_build/default/bin" in
      if not (Sys.file_exists (Inputs.graph_path spec)) then begin
        Printf.eprintf "perfbench: %s is not generated (run gen first)\n" (Inputs.name spec);
        exit 2
      end;
      let r =
        match batch_config workload ~seed with
        | Some cfg -> Batch.run ~cfg ~seconds ~traced ~bin
        | None -> Serve.run ~mutate:(workload = "serve-mutate") ~seed ~seconds ~traced ~bin
      in
      if traced then check_bounds ~workload r;
      Printf.printf "perfbench env: %s\n" (Json.to_string (env ~workload ~seed ~spec));
      print_result ~workload ~traced r;
      if r.failed > 0 then exit 1
  | _ ->
      prerr_endline "usage: perfbench.exe (gen|run) --workload W --seed N [--seconds S --trace 0|1 --bin DIR]";
      exit 2

(* autotune_run: the §5.3 autotuner as a CLI — search the schedule space
   for the fastest configuration of an algorithm on a concrete graph, and
   print the winning schedule in scheduling-language form. *)

open Cmdliner

let run algorithm graph_path source workers budget seed =
  let csr = Graphs.Graph_io.load_csr graph_path in
  Parallel.Pool.with_pool ~num_workers:workers (fun pool ->
      let evaluate =
        match algorithm with
        | "sssp" ->
            fun schedule ->
              snd
                (Support.Timer.time (fun () ->
                     Algorithms.Sssp_delta.run ~pool ~graph:csr ~schedule ~source ()))
        | "kcore" ->
            let graph = Graphs.Csr.symmetrize csr in
            fun schedule ->
              snd
                (Support.Timer.time (fun () ->
                     Algorithms.Kcore.run ~pool ~graph ~schedule ()))
        | "widest" ->
            fun schedule ->
              snd
                (Support.Timer.time (fun () ->
                     Algorithms.Widest_path.run ~pool ~graph:csr ~schedule ~source ()))
        | other ->
            Printf.eprintf "unknown algorithm %S (sssp|kcore|widest)\n" other;
            exit 1
      in
      let space =
        let base =
          { Autotune.Search_space.default with
            Autotune.Search_space.allow_dense_pull = false }
        in
        if algorithm = "kcore" then
          {
            base with
            Autotune.Search_space.strategies =
              [
                Ordered.Schedule.Eager_with_fusion;
                Ordered.Schedule.Eager_no_fusion;
                Ordered.Schedule.Lazy;
                Ordered.Schedule.Lazy_constant_sum;
              ];
            max_delta_exp = 0 (* k-core admits no coarsening *);
          }
        else base
      in
      Printf.printf "searching %d schedule points (budget %d trials)...\n%!"
        (Autotune.Search_space.size space)
        budget;
      let rng = Support.Rng.create seed in
      let result = Autotune.Tuner.tune ~space ~rng ~budget ~evaluate () in
      List.iteri
        (fun i m ->
          Printf.printf "  trial %2d: %8.4fs  %s\n" (i + 1) m.Autotune.Tuner.seconds
            (Ordered.Schedule.strategy_to_string
               m.Autotune.Tuner.schedule.Ordered.Schedule.strategy))
        result.Autotune.Tuner.trials;
      Printf.printf "\nbest: %.4fs with schedule\n  %s\n"
        result.Autotune.Tuner.best.Autotune.Tuner.seconds
        (Format.asprintf "%a" Ordered.Schedule.pp
           result.Autotune.Tuner.best.Autotune.Tuner.schedule))

let () =
  let algorithm =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ALGORITHM"
           ~doc:"sssp|kcore|widest")
  in
  let graph =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"GRAPH" ~doc:"Graph file")
  in
  let source = Arg.(value & opt int 0 & info [ "source" ] ~doc:"Source vertex") in
  let workers = Arg.(value & opt int 1 & info [ "j"; "workers" ] ~doc:"Worker domains") in
  let budget = Arg.(value & opt int 30 & info [ "budget" ] ~doc:"Evaluation budget") in
  let seed = Arg.(value & opt int 2020 & info [ "seed" ] ~doc:"Search seed") in
  let term = Term.(const run $ algorithm $ graph $ source $ workers $ budget $ seed) in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "autotune_run" ~doc:"Autotune a schedule for an algorithm and graph")
          term))

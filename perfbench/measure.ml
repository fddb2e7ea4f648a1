(* Clock, order statistics and the result record shared by every
   workload. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))
let sum xs = List.fold_left ( +. ) 0. xs

(* The highest percentile with at least ten samples beyond it, capped at
   p99: p99 once a run has 1,000 samples. *)
let tail_q n = Float.min 0.99 (1. -. (10. /. float_of_int (max 11 n)))

(* CLI rows run this many times before the timed loop and as many after
   it, and report the best: interference only adds time, and spreading
   the runs over the whole measurement rides out a slow spell. *)
let cli_reps = 3

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* One run's outcome: every correctness check counts as an attempt, and
   metrics are (name, value, unit). *)
type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * (float * string)) list;
  mutable shares : (string * float) list;
      (* each split residual's share of its total, checked against the
         bounds in perfbench/model.json *)
}

let create () = { attempted = 0; failed = 0; metrics = []; shares = [] }

let check r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if r.failed <= 20 then Printf.eprintf "perfbench: MISMATCH %s\n%!" what
  end

let metric r name unit value = r.metrics <- (name, (value, unit)) :: r.metrics

(* Spawn [prog args], capture its stdout, wait for it; returns the exit
   code, the output and the spawn-to-exit seconds. *)
let run_capture prog args =
  let t0 = now () in
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let seconds = now () -. t0 in
  let code = match status with Unix.WEXITED c -> c | _ -> 255 in
  (code, Buffer.contents buf, seconds)

(* The value of [key=<int>] in a line of [ordered_run]'s stats output. *)
let stat_field output key =
  let words = String.split_on_char ' ' (String.concat " " (String.split_on_char '\n' output)) in
  List.find_map
    (fun w ->
      match String.index_opt w '=' with
      | Some i when String.sub w 0 i = key ->
          int_of_string_opt (String.sub w (i + 1) (String.length w - i - 1))
      | _ -> None)
    words

(* Record [name] and its share of the [total] it is the unattributed
   rest of (negative when the parts add up to more than the total). *)
let residual r name unit ~value ~total =
  metric r name unit value;
  r.shares <- (name, value /. total) :: r.shares

module Atomic_array = Parallel.Atomic_array
module Bucket_order = Bucketing.Bucket_order
module Lazy_buckets = Bucketing.Lazy_buckets
module Eager_buckets = Bucketing.Eager_buckets
module Update_buffer = Bucketing.Update_buffer
module Histogram = Bucketing.Histogram
module Vertex_subset = Frontier.Vertex_subset

type initial =
  | Start_vertex of int
  | All_vertices
  | No_initial

type ctx = Traverse.Edge_map.ctx = {
  tid : int;
  use_atomics : bool;
}

type backend =
  | Lazy_backend of {
      buckets : Lazy_buckets.t;
      buffer : Update_buffer.t;
      histogram : (Histogram.t * int array) option;
          (* with the n-word scratch its flush reduces into *)
    }
  | Eager_backend of Eager_buckets.t

type t = {
  num_vertices : int;
  direction : Bucket_order.direction;
  delta : int;
  priorities : Atomic_array.t;
  backend : backend;
  constant_sum_delta : int option;
  pool : Parallel.Pool.t option;
  mutable cur_key : int;
  mutable pending : Vertex_subset.t option;
  mutable exhausted : bool;
}

let key_of_priority t p = Bucket_order.key_of_priority ~direction:t.direction ~delta:t.delta p

let key_of_vertex t v = key_of_priority t (Atomic_array.get t.priorities v)

let min_initial_key ~direction ~delta ~priorities ~initial =
  let key p = Bucket_order.key_of_priority ~direction ~delta p in
  match initial with
  | Start_vertex s -> key (Atomic_array.get priorities s)
  | All_vertices ->
      let best = ref Bucket_order.null_key in
      for v = 0 to Atomic_array.length priorities - 1 do
        let k = key (Atomic_array.get priorities v) in
        if k < !best then best := k
      done;
      if !best = Bucket_order.null_key then 0 else !best
  | No_initial -> 0

let create ~schedule ~num_workers ~direction ~allow_coarsening ~priorities ~initial
    ?constant_sum_delta ?pool () =
  let delta = if allow_coarsening then schedule.Schedule.delta else 1 in
  let num_vertices = Atomic_array.length priorities in
  let backend =
    match schedule.Schedule.strategy with
    | Schedule.Eager_with_fusion | Schedule.Eager_no_fusion ->
        let min_key = min_initial_key ~direction ~delta ~priorities ~initial in
        Eager_backend (Eager_buckets.create ~num_workers ~min_key ())
    | Schedule.Lazy | Schedule.Lazy_constant_sum ->
        let histogram =
          match schedule.Schedule.strategy with
          | Schedule.Lazy_constant_sum ->
              if constant_sum_delta = None then
                invalid_arg
                  "Priority_queue.create: lazy_constant_sum requires \
                   constant_sum_delta";
              Some (Histogram.create ~num_workers (), Array.make num_vertices 0)
          | _ -> None
        in
        Lazy_backend
          {
            buckets =
              Lazy_buckets.create ~num_vertices
                ~num_open:schedule.Schedule.num_open_buckets
                ~source:(Lazy_buckets.Vector (priorities, direction, delta))
                ();
            buffer = Update_buffer.create ~num_vertices ~num_workers ();
            histogram;
          }
  in
  let t =
    {
      num_vertices;
      direction;
      delta;
      priorities;
      backend;
      constant_sum_delta;
      pool;
      cur_key = min_int;
      pending = None;
      exhausted = false;
    }
  in
  (match (t.backend, initial) with
  | _, No_initial -> ()
  | Lazy_backend { buckets; _ }, Start_vertex s -> Lazy_buckets.insert buckets s
  | Lazy_backend { buckets; _ }, All_vertices -> Lazy_buckets.insert_all buckets
  | Eager_backend eb, Start_vertex s ->
      Eager_buckets.insert eb ~tid:0 ~vertex:s ~key:(key_of_vertex t s)
  | Eager_backend eb, All_vertices ->
      for v = 0 to num_vertices - 1 do
        Eager_buckets.insert eb ~tid:0 ~vertex:v ~key:(key_of_vertex t v)
      done);
  t

let num_vertices t = t.num_vertices
let priorities t = t.priorities
let delta t = t.delta

let representative t = Bucket_order.representative_priority ~direction:t.direction ~delta:t.delta t.cur_key

(* Apply the buffered constant-sum updates (Fig. 10 of the paper): vertices
   at or below the current priority are finalized and must not move; the
   rest drop by [diff * count], clamped at the current bucket. *)
let flush_histogram t buckets (histogram, scratch) =
  match t.constant_sum_delta with
  | None -> ()
  | Some diff ->
      let floor_pri = if t.cur_key = min_int then 0 else representative t in
      Histogram.reduce histogram ~scratch (fun ~vertex ~count ->
          let pri = Atomic_array.get t.priorities vertex in
          if pri <> Bucket_order.null_priority && key_of_priority t pri > t.cur_key
          then begin
            let proposed = pri + (diff * count) in
            let updated = if diff < 0 then max proposed floor_pri else proposed in
            if updated <> pri then begin
              Atomic_array.set t.priorities vertex updated;
              Lazy_buckets.insert buckets vertex
            end
          end)

let compute_next t =
  match t.backend with
  | Lazy_backend { buckets; buffer; histogram } -> (
      (* The bulk bucket update of Fig. 5 (lines 12-13): the per-round
         "update" phase the observability layer records. *)
      Observe.Span.with_ "pq.bulk_update" (fun () ->
          (match histogram with
          | Some h -> flush_histogram t buckets h
          | None -> ());
          (* The insert sweep is inherently sequential, but with a pool the
             buffer copy and flag resets run one segment per worker. *)
          match t.pool with
          | Some pool ->
              let vs = Update_buffer.drain_to_array buffer ~pool in
              Array.iter (fun v -> Lazy_buckets.insert buckets v) vs
          | None ->
              Update_buffer.drain buffer (fun v -> Lazy_buckets.insert buckets v));
      match Lazy_buckets.next_bucket buckets with
      | None -> None
      | Some (key, members) ->
          t.cur_key <- key;
          Some (Vertex_subset.unsafe_of_array ~num_vertices:t.num_vertices members))
  | Eager_backend eb -> (
      match Eager_buckets.next_global_key eb with
      | None -> None
      | Some key ->
          t.cur_key <- key;
          let members = Eager_buckets.drain_global eb ~key in
          Some (Vertex_subset.unsafe_of_array ~num_vertices:t.num_vertices members))

let finished t =
  match t.pending with
  | Some _ -> false
  | None ->
      t.exhausted
      ||
      (match compute_next t with
      | Some subset ->
          t.pending <- Some subset;
          false
      | None ->
          t.exhausted <- true;
          true)

let dequeue_ready_set t =
  match t.pending with
  | Some subset ->
      t.pending <- None;
      subset
  | None -> (
      if t.exhausted then invalid_arg "Priority_queue.dequeue_ready_set: finished";
      match compute_next t with
      | Some subset -> subset
      | None ->
          t.exhausted <- true;
          invalid_arg "Priority_queue.dequeue_ready_set: finished")

let current_priority t = representative t
let current_key t = t.cur_key

let finished_vertex t v = t.exhausted || key_of_vertex t v < t.cur_key

(* Record that [v]'s priority changed to [value]: eager backends file the
   vertex under its new bucket immediately; lazy backends buffer it (with
   per-round CAS deduplication) for the next bulk update. *)
let record_change t ctx v value =
  match t.backend with
  | Eager_backend eb ->
      Eager_buckets.insert eb ~tid:ctx.tid ~vertex:v ~key:(key_of_priority t value)
  | Lazy_backend { buffer; _ } -> ignore (Update_buffer.try_add buffer ~tid:ctx.tid v)

let update_priority_min t ctx v value =
  let changed =
    if ctx.use_atomics then Atomic_array.fetch_min t.priorities v value
    else begin
      let cur = Atomic_array.get t.priorities v in
      if value < cur then begin
        Atomic_array.set t.priorities v value;
        true
      end
      else false
    end
  in
  if changed then record_change t ctx v value

let update_priority_max t ctx v value =
  let changed =
    if ctx.use_atomics then Atomic_array.fetch_max t.priorities v value
    else begin
      let cur = Atomic_array.get t.priorities v in
      if value > cur && cur <> Bucket_order.null_priority then begin
        Atomic_array.set t.priorities v value;
        true
      end
      else false
    end
  in
  if changed then record_change t ctx v value

let update_priority_sum t ctx v ~diff ~floor =
  match t.backend with
  | Lazy_backend { histogram = Some (h, _); _ } ->
      (match t.constant_sum_delta with
      | Some expected when expected <> diff ->
          invalid_arg
            "Priority_queue.update_priority_sum: diff differs from the \
             constant_sum_delta the queue was created with"
      | _ -> ());
      Histogram.record h ~tid:ctx.tid v
  | Lazy_backend _ | Eager_backend _ ->
      let change =
        if ctx.use_atomics then
          Atomic_array.add_with_floor t.priorities v ~delta:diff ~floor
        else begin
          let cur = Atomic_array.get t.priorities v in
          if diff < 0 && cur <= floor then None
          else begin
            let target = max floor (cur + diff) in
            if target = cur then None
            else begin
              Atomic_array.set t.priorities v target;
              Some (cur, target)
            end
          end
        end
      in
      (match change with
      | Some (_, updated) -> record_change t ctx v updated
      | None -> ())

let set_priority t ctx v value =
  Atomic_array.set t.priorities v value;
  if value <> Bucket_order.null_priority then record_change t ctx v value

let constant_sum_recorder t =
  match t.backend with
  | Lazy_backend { histogram = Some (h, _); _ } ->
      Some (fun ~tid v -> Histogram.record h ~tid v)
  | Lazy_backend { histogram = None; _ } | Eager_backend _ -> None

let vertex_on_current_bucket t v = key_of_vertex t v = t.cur_key

let eager_buckets t =
  match t.backend with
  | Eager_backend eb -> eb
  | Lazy_backend _ -> invalid_arg "Priority_queue.eager_buckets: lazy backend"

let is_eager t =
  match t.backend with
  | Eager_backend _ -> true
  | Lazy_backend _ -> false

let needs_processing_filter = is_eager

let total_bucket_inserts t =
  match t.backend with
  | Eager_backend eb -> Eager_buckets.total_inserts eb
  | Lazy_backend { buckets; _ } -> Lazy_buckets.total_inserts buckets

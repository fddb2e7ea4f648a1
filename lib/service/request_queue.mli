(** The service's bounded admission queue.

    Multi-producer (one thread per client connection), single-consumer
    (the batcher loop). Admission control is the whole point: {!try_push}
    never blocks — a full queue refuses the item and the caller answers
    [rejected] immediately, so a traffic spike degrades into fast
    rejections instead of unbounded memory growth and collapsing tail
    latency. Blocking happens only on the consumer side, in
    {!pop_batch}, and only while the queue is empty.

    The concurrency invariants this structure must uphold are named and
    tested in docs/SERVICE.md §6 (I1–I3). *)

type 'a t

(** [create ~capacity ()] is an empty queue admitting at most [capacity]
    items. Raises [Invalid_argument] when [capacity < 1]. The queue holds
    the two ends of a wake-up pipe, closed when it is garbage-collected. *)
val create : capacity:int -> unit -> 'a t

val capacity : 'a t -> int

(** [length t] is the current depth (racy but exact under the mutex). *)
val length : 'a t -> int

(** [try_push t x] admits [x] unless the queue is full or closed.
    Never blocks; wakes the consumer. *)
val try_push : 'a t -> 'a -> bool

(** [pop_batch t ~max ~timeout_s] blocks until at least one item is
    queued (or [timeout_s] elapses, or the queue closes), then drains up
    to [max] items in FIFO order. [[]] means timeout or closed. *)
val pop_batch : 'a t -> max:int -> timeout_s:float -> 'a list

(** [close t] wakes blocked consumers; subsequent pushes are refused and
    pops return the remaining items, then [[]] forever. *)
val close : 'a t -> unit

val is_closed : 'a t -> bool

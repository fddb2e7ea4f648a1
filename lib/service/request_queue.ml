(* The consumer blocks in [Unix.select] on a self-pipe, which gives the
   timed wait that [Condition] lacks. A push onto an empty queue, and
   [close], write one byte; the consumer drains the pipe after every
   wake-up and re-checks the queue under the mutex. A byte left over from
   a push the consumer took without waiting costs one spurious wake-up,
   never a lost one: every byte is written under the mutex after the
   state change it announces. *)
type 'a t = {
  mutex : Mutex.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Request_queue.create: capacity < 1";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      mutex = Mutex.create ();
      items = Queue.create ();
      capacity;
      closed = false;
      wake_r;
      wake_w;
    }
  in
  (* No thread can be waiting on the pipe once the queue is unreachable. *)
  Gc.finalise
    (fun t ->
      Unix.close t.wake_r;
      Unix.close t.wake_w)
    t;
  t

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let length t = with_lock t (fun () -> Queue.length t.items)

(* A full pipe already holds a pending wake-up. *)
let wake t =
  try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let drain_wakeups t =
  let buf = Bytes.create 64 in
  try
    while Unix.read t.wake_r buf 0 64 > 0 do
      ()
    done
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let try_push t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        let was_empty = Queue.is_empty t.items in
        Queue.add x t.items;
        if was_empty then wake t;
        true
      end)

let pop_batch t ~max ~timeout_s =
  if max < 1 then invalid_arg "Request_queue.pop_batch: max < 1";
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    if Queue.is_empty t.items && not t.closed then begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then []
      else begin
        (* Drop the lock while blocked so producers can push. *)
        Mutex.unlock t.mutex;
        (try ignore (Unix.select [ t.wake_r ] [] [] remaining)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        drain_wakeups t;
        Mutex.lock t.mutex;
        wait ()
      end
    end
    else begin
      let batch = ref [] in
      let n = ref 0 in
      while (not (Queue.is_empty t.items)) && !n < max do
        batch := Queue.take t.items :: !batch;
        incr n
      done;
      List.rev !batch
    end
  in
  with_lock t wait

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      wake t)

let is_closed t = with_lock t (fun () -> t.closed)

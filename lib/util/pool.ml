(* The only module allowed to use Domain/Mutex/Condition (disco-lint L6):
   everything parallel in the tree goes through this pool, so the
   determinism argument (DESIGN.md §5d) has a single choke point.

   Shape: [create] spawns jobs-1 worker domains that block on a
   Mutex/Condition-protected queue of thunks; [run] enqueues one thunk per
   input index, then the calling domain drains the queue alongside the
   workers and finally waits for in-flight thunks to land. Results and
   exceptions are written to per-index slots (disjoint writes, no races);
   the completion counter is the only cross-domain coordination, and it is
   mutex-protected, which also publishes the slot writes to the caller. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  pending : (unit -> unit) Queue.t;
  wake : Condition.t;  (* workers: work arrived or shutdown *)
  idle : Condition.t;  (* caller: a batch finished *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()
let resolve_jobs n = if n <= 0 then default_jobs () else n
let jobs t = t.jobs

let worker t =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec take () =
      if t.stop then None
      else
        match Queue.take_opt t.pending with
        | Some _ as job -> job
        | None ->
            Condition.wait t.wake t.mutex;
            take ()
    in
    let job = take () in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some thunk ->
        thunk ();
        loop ()
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      pending = Queue.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      stop = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Shared lazy caches (e.g. landmark trees) are filled from inside pool
   tasks, so their fill path needs the same mutex discipline as the queue;
   exposing the memo from here keeps every lock in the tree behind this
   module (lint L6). The lock guards table lookups/inserts and the free
   list of scratch values only — compute runs unlocked, and a lost race
   converges on the winner's value, which is sound because compute is
   required to be deterministic in the key. A fill borrows a free scratch
   value and makes one only when every value is lent out, so the memo
   never makes more values than there were fills running at once. A
   bounded memo also keeps a clock, stamped on each entry at every fill
   and hit, and makes room for a new entry by dropping the least recently
   stamped one. *)
module Memo = struct
  (* [used] is the memo's clock at the entry's last fill or hit; a bounded
     memo evicts the entry with the smallest. *)
  type 'v cell = { value : 'v; mutable used : int }

  type ('k, 'v, 's) t = {
    lock : Mutex.t;
    table : ('k, 'v cell) Hashtbl.t;
    capacity : int; (* max_int: never evicts *)
    mutable clock : int;
    make_scratch : unit -> 's;
    mutable free : 's list;
  }

  let make ~size ~capacity scratch =
    {
      lock = Mutex.create ();
      table = Hashtbl.create size;
      capacity;
      clock = 0;
      make_scratch = scratch;
      free = [];
    }

  let create ?(size = 64) ~scratch () = make ~size ~capacity:max_int scratch

  let bounded ~capacity ~scratch () =
    if capacity < 1 then invalid_arg "Pool.Memo.bounded: capacity < 1";
    make ~size:capacity ~capacity scratch

  (* Callers hold the lock. *)
  let touch m c =
    c.used <- m.clock;
    m.clock <- m.clock + 1

  let evict_least_recent m =
    let oldest =
      Hashtbl.fold
        (fun k c acc ->
          match acc with
          | Some (_, used) when used <= c.used -> acc
          | _ -> Some (k, c.used))
        m.table None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove m.table k) oldest

  let borrow m =
    Mutex.lock m.lock;
    let lent =
      match m.free with
      | s :: rest ->
          m.free <- rest;
          Some s
      | [] -> None
    in
    Mutex.unlock m.lock;
    match lent with Some s -> s | None -> m.make_scratch ()

  let give_back m s =
    Mutex.lock m.lock;
    m.free <- s :: m.free;
    Mutex.unlock m.lock

  let find_or_add m key compute =
    Mutex.lock m.lock;
    let hit = Hashtbl.find_opt m.table key in
    (match hit with Some c -> touch m c | None -> ());
    Mutex.unlock m.lock;
    match hit with
    | Some c -> c.value
    | None ->
        let s = borrow m in
        let v =
          Fun.protect ~finally:(fun () -> give_back m s) (fun () -> compute s)
        in
        Mutex.lock m.lock;
        let c =
          match Hashtbl.find_opt m.table key with
          | Some winner -> winner
          | None ->
              if Hashtbl.length m.table >= m.capacity then evict_least_recent m;
              let c = { value = v; used = 0 } in
              Hashtbl.add m.table key c;
              c
        in
        touch m c;
        Mutex.unlock m.lock;
        c.value

  let length m =
    Mutex.lock m.lock;
    let n = Hashtbl.length m.table in
    Mutex.unlock m.lock;
    n
end

let run_sequential input f = Array.map f input

let run t input f =
  let n = Array.length input in
  if t.jobs = 1 || n <= 1 then run_sequential input f
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let remaining = ref n in
    let task i () =
      (match f input.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e);
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.signal t.idle;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (task i) t.pending
    done;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    (* The calling domain is a worker too, for the duration of the batch. *)
    let rec help () =
      Mutex.lock t.mutex;
      let job = Queue.take_opt t.pending in
      Mutex.unlock t.mutex;
      match job with
      | Some thunk ->
          thunk ();
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock t.mutex;
    while !remaining > 0 do
      Condition.wait t.idle t.mutex
    done;
    Mutex.unlock t.mutex;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Pool.run: task produced no result")
      results
  end

(* The host's speed, from a fixed reference job.

   On a shared host the speed one process gets drifts by tens of percent
   over seconds and minutes: runs of identical inputs a few minutes apart
   have differed by 1.7x.  So a fixed job is timed next to the work being
   measured, and each window's timings are divided by how much slower than
   nominal the job ran in that window: figures read as on a host where the
   job takes its nominal time.  The run record keeps the unscaled figures
   and the slowdowns beside them.

   The job has two parts, timed apart, because the drift has two causes
   and the routing walks, chains of dependent table lookups that also
   keep the core busy, feel both:
   - memory: a chain of dependent loads through one random cycle over a
     16 MB buffer outside the OCaml heap (so the GC never scans it).  The
     buffer is eight times the L2 cache and the loads are spread over it,
     so nearly every one goes to memory, whatever the program does
     between jobs and even when jobs run back to back (around a set-up).
   - core: eight independent multiply chains, which keep the core's
     execution units full.  They slow down when another tenant's thread
     shares the core, and that was most of the drift: up to 1.6x, where
     a single dependent chain moved 1.1x.
   The slowdown is the geometric mean of the two parts' slowdowns.  Per
   window, it tracked the walks' packet rates more closely than either
   part alone.  The job never allocates, so it may run inside the
   zero-alloc loop. *)

open Bigarray

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let words = 1 lsl 21
let mem_steps = 512
let core_steps = 1024

(* Each part's time at the nominal host speed. *)
let nominal_mem_ns = 100_000.0
let nominal_core_ns = 5_000.0

(* Jobs run once per [period_ns] of measured work. *)
let period_ns = 1_000_000

(* Sattolo's shuffle of the identity: a single cycle through every slot,
   fixed by a constant seed. *)
let cycle =
  lazy
    (let a = Array1.create int c_layout words in
     for i = 0 to words - 1 do
       a.{i} <- i
     done;
     let st = ref 0x2545F4914F6CDD1 in
     for i = words - 1 downto 1 do
       st := (!st * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
       let j = (!st lsr 17) mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

type t = {
  cycle : (int, int_elt, c_layout) Array1.t;
  mem_ns : int array;  (* per window: time spent in the memory part *)
  core_ns : int array;  (* per window: time spent in the core part *)
  jobs : int array;  (* per window: jobs run *)
  mutable w : int;  (* current window *)
  mutable at : int;  (* where the load chain stopped *)
  mutable sink : int;  (* the multiply chains' value, kept so it is computed *)
}

let create ~windows =
  {
    cycle = Lazy.force cycle;
    mem_ns = Array.make windows 0;
    core_ns = Array.make windows 0;
    jobs = Array.make windows 0;
    w = 0;
    at = 0;
    sink = 1;
  }

let job t =
  let w = t.w in
  let t0 = now_ns () in
  let at = ref t.at in
  for _ = 1 to mem_steps do
    at := Array1.unsafe_get t.cycle !at
  done;
  t.at <- !at;
  let t1 = now_ns () in
  let m = 0x100000001b3 in
  let a0 = ref t.sink and a1 = ref 3 and a2 = ref 5 and a3 = ref 7 in
  let a4 = ref 11 and a5 = ref 13 and a6 = ref 17 and a7 = ref 19 in
  for i = 1 to core_steps do
    a0 := (!a0 * m) lxor i;
    a1 := (!a1 * m) lxor i;
    a2 := (!a2 * m) lxor i;
    a3 := (!a3 * m) lxor i;
    a4 := (!a4 * m) lxor i;
    a5 := (!a5 * m) lxor i;
    a6 := (!a6 * m) lxor i;
    a7 := (!a7 * m) lxor i
  done;
  t.sink <- !a0 lxor !a1 lxor !a2 lxor !a3 lxor !a4 lxor !a5 lxor !a6 lxor !a7;
  let t2 = now_ns () in
  t.mem_ns.(w) <- t.mem_ns.(w) + (t1 - t0);
  t.core_ns.(w) <- t.core_ns.(w) + (t2 - t1);
  t.jobs.(w) <- t.jobs.(w) + 1

let next_window t = if t.w < Array.length t.jobs - 1 then t.w <- t.w + 1

let part t ns nominal w =
  if t.jobs.(w) = 0 then 1.0 else float_of_int ns.(w) /. float_of_int t.jobs.(w) /. nominal

(* How many times slower than nominal the job ran in window [w]; 1 when
   no job ran there. *)
let slowdown t w =
  sqrt (part t t.mem_ns nominal_mem_ns w *. part t t.core_ns nominal_core_ns w)

(* The core part's slowdown alone, for work that computes and allocates
   more than it waits on memory (the churn workload's route queries). *)
let core_slowdown t w = part t t.core_ns nominal_core_ns w

(* [f ()] and the slowdown around it, for work that jobs cannot be
   interleaved with (a set-up): jobs run for 10 ms before and after. *)
let around f =
  let t = create ~windows:1 in
  let spin () =
    let until = now_ns () + 10_000_000 in
    while now_ns () < until do
      job t
    done
  in
  spin ();
  let v = f () in
  spin ();
  (v, slowdown t 0)

(* Each window's slowdown, as a JSON member for the run record. *)
let windows_json t used =
  Printf.sprintf "\"host.slowdown\": [%s]"
    (String.concat ", " (List.map (fun w -> Printf.sprintf "%.3f" (slowdown t w)) used))

(* Per-packet latencies of one lane, split into consecutive windows.

   Each window keeps raw samples in ns in a preallocated buffer; when the
   buffer fills, every other sample is dropped and from then on only
   every [stride]-th packet is kept, so recording never allocates and the
   kept samples stay spread evenly over the window.  Packet counts and
   busy time are kept per window for every packet.

   A figure is computed per window, and the figure of the best sixteenth
   of the windows is reported: the window at rank 1/16 from the fast end
   (nearest rank; the second best of 32).  Interference on a shared host
   only ever slows a window down, and it comes in spells of seconds to
   minutes that can cover most of a run, so the fast end of the windows
   repeats from run to run where their median does not.  Lanes routed
   together share their windows; with several lanes, a window's figure is
   the geometric mean over the lanes, so every lane weighs the same.
   [slowdown w] scales window [w]'s timings to the nominal host speed
   (see Host). *)

type t = {
  buf : int array array;  (* per window *)
  len : int array;
  stride : int array;
  skip : int array;
  packets : int array;
  ns : int array;
  mutable w : int;  (* current window *)
}

let create ~windows ~per_window =
  {
    buf = Array.init windows (fun _ -> Array.make per_window 0);
    len = Array.make windows 0;
    stride = Array.make windows 1;
    skip = Array.make windows 0;
    packets = Array.make windows 0;
    ns = Array.make windows 0;
    w = 0;
  }

let add t dt =
  let w = t.w in
  t.packets.(w) <- t.packets.(w) + 1;
  t.ns.(w) <- t.ns.(w) + dt;
  if t.skip.(w) > 0 then t.skip.(w) <- t.skip.(w) - 1
  else begin
    let buf = t.buf.(w) in
    if t.len.(w) = Array.length buf then begin
      let half = t.len.(w) / 2 in
      for i = 0 to half - 1 do
        buf.(i) <- buf.(2 * i)
      done;
      t.len.(w) <- half;
      t.stride.(w) <- 2 * t.stride.(w)
    end;
    buf.(t.len.(w)) <- dt;
    t.len.(w) <- t.len.(w) + 1;
    t.skip.(w) <- t.stride.(w) - 1
  end

let next_window t = if t.w < Array.length t.buf - 1 then t.w <- t.w + 1

let packets t = Array.fold_left ( + ) 0 t.packets
let busy_ns t = Array.fold_left ( + ) 0 t.ns

let used t = List.filter (fun w -> t.packets.(w) > 0) (List.init (Array.length t.buf) Fun.id)

let window_rate t w = float_of_int t.packets.(w) /. (float_of_int t.ns.(w) *. 1e-9)

(* Nearest-rank [q]-quantile of window [w]'s kept samples, in ns. *)
let window_percentile q t w =
  let a = Array.init t.len.(w) (fun i -> float_of_int t.buf.(w).(i)) in
  Array.sort Float.compare a;
  Disco_util.Stats.percentile a q

(* The best sixteenth of the windows' figures [f], where [higher] is
   better: the window at rank 1/16 from the fast end. *)
let over_windows ~higher f = function
  | [] -> nan
  | t0 :: _ as ts ->
      let sign = if higher then -1.0 else 1.0 in
      let a =
        Array.of_list
          (List.map
             (fun w -> sign *. exp (Emit.mean (List.map (fun t -> log (f t w)) ts)))
             (used t0))
      in
      Array.sort Float.compare a;
      if Array.length a = 0 then nan else sign *. Disco_util.Stats.percentile a (1.0 /. 16.0)

(* Packets per second of busy time. *)
let rate ~slowdown ts = over_windows ~higher:true (fun t w -> window_rate t w *. slowdown w) ts

(* The [q]-quantile of one packet's latency, in ns. *)
let percentile ~slowdown ts q =
  over_windows ~higher:false (fun t w -> window_percentile q t w /. slowdown w) ts

(* Each window's packet rate and median latency in ns, unscaled, as JSON
   members for the run record. *)
let windows_json name t =
  let each f = String.concat ", " (List.map (fun w -> Printf.sprintf "%.1f" (f w)) (used t)) in
  Printf.sprintf "%S: {\"pkts_per_s\": [%s], \"p50_ns\": [%s]}" name (each (window_rate t))
    (each (window_percentile 0.5 t))

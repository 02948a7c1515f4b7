(* Spans the benchmark records around its calls into the repo's layers.

   A span is (name, start, stop, parent).  Spans live in preallocated
   parallel arrays and are written out only when the run ends.  When
   tracing is off, [span] is a plain call and [enter]/[leave] do nothing,
   so the untraced run measures the program alone. *)

let now_ns = Host.now_ns

type t = {
  enabled : bool;
  mutable names : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable len : int;
  mutable current : int;  (* innermost open span; -1 at top level *)
}

let capacity = 1 lsl 16

let create ~enabled =
  let cap = if enabled then capacity else 0 in
  {
    enabled;
    names = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    len = 0;
    current = -1;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0;
  t.parent <- extend t.parent (-1)

(* Room for [k] more spans without growing: the per-packet spans in the
   timed loop check this so the loop never allocates. *)
let has_room t k = t.enabled && t.len + k <= Array.length t.names

let enter t name =
  if not t.enabled then -1
  else begin
    if t.len = Array.length t.names then grow t;
    let i = t.len in
    t.names.(i) <- name;
    t.start.(i) <- now_ns ();
    t.stop.(i) <- -1;
    t.parent.(i) <- t.current;
    t.current <- i;
    t.len <- i + 1;
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- now_ns ();
    t.current <- t.parent.(i)
  end

(* A closed span with given bounds (per-packet spans are timed by the
   loop itself and recorded afterwards).  The caller checks [has_room]. *)
let record t name ~parent ~start ~stop =
  let i = t.len in
  t.names.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.len <- i + 1;
  i

let span t name f =
  if not t.enabled then f ()
  else begin
    let i = enter t name in
    match f () with
    | v ->
        leave t i;
        v
    | exception e ->
        leave t i;
        raise e
  end

(* Run the set-up [build] [k] times, each from a collected heap and under
   a "setup" span; the work is identical each time.  Returns the last
   result (the one measured) and the median wall time in seconds, scaled
   by the host's slowdown around each set-up (see Host) and unscaled. *)
let repeat_setup t k build =
  let last = ref None and scaled = ref [] and unscaled = ref [] in
  for _ = 1 to k do
    last := None;
    Gc.compact ();
    let (w, s), slowdown =
      Host.around (fun () ->
          let t0 = now_ns () in
          let w = span t "setup" build in
          (w, float_of_int (now_ns () - t0) *. 1e-9))
    in
    scaled := (s /. slowdown) :: !scaled;
    unscaled := s :: !unscaled;
    last := Some w
  done;
  (Option.get !last, Emit.median !scaled, Emit.median !unscaled)

let duration t i = t.stop.(i) - t.start.(i)

(* Self time: the span's duration minus what its children cover. *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

let find_all t name =
  List.filter (fun i -> t.names.(i) = name) (List.init t.len Fun.id)

(* Total seconds over every span with this name. *)
let total_s t name =
  List.fold_left (fun acc i -> acc + duration t i) 0 (find_all t name)
  |> fun ns -> float_of_int ns *. 1e-9

let count t name = List.length (find_all t name)

(* For each span name below a [root] span (any depth), its duration
   summed per root and then the median over the roots, in seconds; a name
   missing under some root counts 0 there.  With one [root] span per
   repeated set-up, this is each layer's median set-up cost. *)
let medians_under t root =
  let roots = Array.of_list (find_all t root) in
  let index = Hashtbl.create 8 in
  Array.iteri (fun k r -> Hashtbl.replace index r k) roots;
  let rec root_of i =
    if i < 0 then -1
    else match Hashtbl.find_opt index i with
      | Some k -> k
      | None -> root_of t.parent.(i)
  in
  let sums = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let k = root_of t.parent.(i) in
    if k >= 0 then begin
      let per_root =
        match Hashtbl.find_opt sums t.names.(i) with
        | Some a -> a
        | None ->
            let a = Array.make (Array.length roots) 0 in
            Hashtbl.replace sums t.names.(i) a;
            a
      in
      per_root.(k) <- per_root.(k) + duration t i
    end
  done;
  Hashtbl.fold
    (fun name a acc ->
      (name, Emit.median (Array.to_list (Array.map (fun ns -> float_of_int ns *. 1e-9) a)))
      :: acc)
    sums []

(* Median over [root] spans of the share of each one's duration that its
   descendants cover (1 - self/duration). *)
let covered_share t root =
  let self = self_times t in
  Emit.median
    (List.map
       (fun r -> 1.0 -. (float_of_int self.(r) /. float_of_int (max 1 (duration t r))))
       (find_all t root))

let to_json t =
  let self = self_times t in
  let b = Buffer.create (64 * (t.len + 1)) in
  Buffer.add_char b '[';
  for i = 0 to t.len - 1 do
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b
      "\n{\"id\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \
       \"parent\": %d, \"self_ns\": %d}"
      i t.names.(i) t.start.(i) t.stop.(i) t.parent.(i) self.(i)
  done;
  Buffer.add_string b "\n]";
  Buffer.contents b

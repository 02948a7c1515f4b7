(* Slot i's priority, push sequence number and value sit at index i of
   three parallel arrays, so neither a push nor a pop allocates beyond the
   arrays' doubling. Every value slot at or past [len] holds [filler]. *)
type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable len : int;
  mutable next_seq : int;
  filler : 'a;
}

let create filler =
  { prio = [||]; seq = [||]; value = [||]; len = 0; next_seq = 0; filler }

let is_empty t = t.len = 0
(* disco-lint: allow L10 test_heap's "empty heap", "peek not destructive", "size tracks pushes and pops" and model test count entries through it *)
let size t = t.len
let[@inline] min_prio t = if t.len = 0 then infinity else t.prio.(0)

(* Slot [a] pops before slot [b]: a lower priority, or the same one pushed
   earlier. *)
let[@inline] before t a b =
  let pa = t.prio.(a) and pb = t.prio.(b) in
  pa < pb || (pa = pb && t.seq.(a) < t.seq.(b))

let[@inline] move t src dst =
  t.prio.(dst) <- t.prio.(src);
  t.seq.(dst) <- t.seq.(src);
  t.value.(dst) <- t.value.(src)

let grow t =
  let cap = max 8 (2 * t.len) in
  let prio = Array.make cap 0.0
  and seq = Array.make cap 0
  and value = Array.make cap t.filler in
  Array.blit t.prio 0 prio 0 t.len;
  Array.blit t.seq 0 seq 0 t.len;
  Array.blit t.value 0 value 0 t.len;
  t.prio <- prio;
  t.seq <- seq;
  t.value <- value

(* Move the hole at [i] up past every parent of higher priority, then
   fill it with the entry (p, s, v). [s] is the newest push, so a parent
   of equal priority pops before it and stays put. *)
let rec sift_up t i p s v =
  let parent = (i - 1) / 2 in
  if i > 0 && p < t.prio.(parent) then begin
    move t parent i;
    sift_up t parent p s v
  end
  else begin
    t.prio.(i) <- p;
    t.seq.(i) <- s;
    t.value.(i) <- v
  end

let push t p v =
  if t.len = Array.length t.prio then grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i p s v

(* Move the hole at [i] down past every child that pops before slot
   [last], the entry that will fill it, and return where the hole ends.
   The entry is compared in place: every child index is below [last], so
   the descent never overwrites it, and its priority is never copied into
   a boxed argument. *)
let rec sift_down t i last =
  let l = (2 * i) + 1 in
  if l >= last then i
  else begin
    let c = if l + 1 < last && before t (l + 1) l then l + 1 else l in
    if before t c last then begin
      move t c i;
      sift_down t c last
    end
    else i
  end

let pop_min t =
  if t.len = 0 then t.filler
  else begin
    let top = t.value.(0) in
    let last = t.len - 1 in
    t.len <- last;
    if last > 0 then move t last (sift_down t 0 last);
    t.value.(last) <- t.filler;
    top
  end

let clear t =
  Array.fill t.value 0 t.len t.filler;
  t.len <- 0

module Hash_space = Disco_hash.Hash_space
module Rng = Disco_util.Rng

type t = {
  nd : Nddisco.t;
  groups : Groups.t;
  neighbor_sets : int array array; (* per node: succ/pred/fingers, both ways *)
  fingers_out : int array array;
}

let u64_to_float h =
  if Int64.compare h 0L >= 0 then Int64.to_float h
  else Int64.to_float h +. 18446744073709551616.0

let build ~rng ?fingers (nd : Nddisco.t) groups =
  let fingers =
    match fingers with Some f -> f | None -> nd.params.Params.fingers
  in
  let n = Nddisco.n nd in
  let links = Array.make n [] in
  (* Indexed edge membership: an undirected edge {a,b} keyed as a single
     int, so the finger loop's duplicate check is O(1) instead of a linear
     scan of the neighbor list (quadratic in degree over a node's draws). *)
  let edge_set = Hashtbl.create (4 * n) in
  let edge_key a b = if a < b then (a * n) + b else (b * n) + a in
  let has_link a b = Hashtbl.mem edge_set (edge_key a b) in
  let add_link a b =
    if a <> b && not (has_link a b) then begin
      Hashtbl.add edge_set (edge_key a b) ();
      links.(a) <- b :: links.(a);
      links.(b) <- a :: links.(b)
    end
  in
  (* Groups are contiguous slices of the hash-sorted id array, so group
     membership is a (start, stop) range — no per-node member copies or
     re-sorts (those were quadratic-ish in group size across the n nodes).
     [hfloat] maps sorted positions to hash positions as floats once. *)
  let sorted = Groups.sorted_ids groups in
  let hfloat = Array.map (fun w -> u64_to_float nd.hashes.(w)) sorted in
  (* Successor/predecessor links in hash order within each group: linking
     each group's sorted chain gives exactly the in-group portion of the
     global circular ordering (groups are contiguous hash ranges). *)
  let chains = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    let key = (Groups.bits_of groups v, Groups.group_id groups v) in
    if not (Hashtbl.mem chains key) then begin
      Hashtbl.add chains key ();
      let start, stop = Groups.member_range groups v in
      for i = start to stop - 2 do
        add_link sorted.(i) sorted.(i + 1)
      done
    end
  done;
  (* Fingers: log-uniform hash-distance draws within the group (Symphony). *)
  let fingers_of = Array.make n [] in
  for v = 0 to n - 1 do
    let start, stop = Groups.member_range groups v in
    let size = stop - start in
    if size > 3 then begin
      let hv = u64_to_float nd.hashes.(v) in
      let lo = hfloat.(start) in
      let hi = hfloat.(stop - 1) in
      let picked = ref 0 and attempts = ref 0 in
      while !picked < fingers && !attempts < 16 * fingers do
        incr attempts;
        let left_room = hv -. lo and right_room = hi -. hv in
        let side_right =
          if left_room <= 1.0 then true
          else if right_room <= 1.0 then false
          else Rng.bool rng
        in
        let room = if side_right then right_room else left_room in
        if room > 1.0 then begin
          let mag = exp (Rng.float rng (log room)) in
          let target = if side_right then hv +. mag else hv -. mag in
          (* Closest member hash to the target (the resolution-database
             query in the real protocol), by binary search over the sorted
             slice. Matches the old linear scan exactly: global minimum of
             |hash - target| over members other than v, ties resolved to
             the smallest sorted index. *)
          let p =
            let plo = ref start and phi = ref stop in
            while !plo < !phi do
              let mid = (!plo + !phi) / 2 in
              if hfloat.(mid) < target then plo := mid + 1 else phi := mid
            done;
            !plo
          in
          let best = ref (-1) and best_d = ref infinity in
          (* Nearest non-v member at or right of the crossing. *)
          let r = ref p in
          while !r < stop && sorted.(!r) = v do
            incr r
          done;
          if !r < stop then begin
            best := sorted.(!r);
            best_d := Float.abs (hfloat.(!r) -. target)
          end;
          (* Nearest non-v member left of the crossing, widened to the
             leftmost of its equal-hash run (the linear scan's first-seen
             tie rule). *)
          let l = ref (p - 1) in
          while !l >= start && sorted.(!l) = v do
            decr l
          done;
          if !l >= start then begin
            let d = Float.abs (hfloat.(!l) -. target) in
            if d <= !best_d then begin
              let ll = ref !l in
              let j = ref (!l - 1) in
              while !j >= start && hfloat.(!j) = hfloat.(!l) do
                if sorted.(!j) <> v then ll := !j;
                decr j
              done;
              best := sorted.(!ll);
              best_d := d
            end
          end;
          if !best >= 0 && not (has_link v !best) then begin
            add_link v !best;
            fingers_of.(v) <- !best :: fingers_of.(v);
            incr picked
          end
        end
      done
    end
  done;
  let neighbor_sets =
    Array.map
      (fun l ->
        let arr = Array.of_list (List.sort_uniq Int.compare l) in
        arr)
      links
  in
  { nd; groups; neighbor_sets; fingers_out = Array.map Array.of_list fingers_of }

(* disco-lint: allow L10 test_overlay's "neighbors symmetric", "neighbors in group" and "out fingers recorded" check the built adjacency through it *)
let neighbors t v = t.neighbor_sets.(v)
let out_fingers t v = t.fingers_out.(v)
let degree t v = Array.length t.neighbor_sets.(v)

let mean_degree t =
  let n = Array.length t.neighbor_sets in
  let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.neighbor_sets in
  float_of_int total /. float_of_int n

type dissemination = {
  messages : int;
  mean_hops : float;
  max_hops : int;
  reached : int;
  expected : int;
}

(* Flood one announcement from [src] under the directional rule; calls
   [on_reach w hops] on each first receipt and [on_send ()] per message. *)
let flood t ~src ~on_reach ~on_send =
  let nd = t.nd in
  let hops_of = Hashtbl.create 64 in
  Hashtbl.replace hops_of src 0;
  let q = Queue.create () in
  (* direction: +1 = announcements moving toward higher hashes. *)
  let forward u dir hops =
    Array.iter
      (fun x ->
        if Groups.believes t.groups u x && Groups.believes t.groups x u then begin
          let cmp = Hash_space.compare_unsigned nd.hashes.(x) nd.hashes.(u) in
          if (dir > 0 && cmp > 0) || (dir < 0 && cmp < 0) then begin
            on_send ();
            if not (Hashtbl.mem hops_of x) then begin
              Hashtbl.replace hops_of x (hops + 1);
              on_reach x (hops + 1);
              Queue.push (x, dir, hops + 1) q
            end
          end
        end)
      t.neighbor_sets.(u)
  in
  (* Origin seeds both directions. *)
  forward src 1 0;
  forward src (-1) 0;
  while not (Queue.is_empty q) do
    let u, dir, hops = Queue.pop q in
    forward u dir hops
  done;
  hops_of

let disseminate t =
  let n = Array.length t.neighbor_sets in
  let messages = ref 0 in
  let hop_sum = ref 0 and hop_count = ref 0 and max_hops = ref 0 in
  let reached = ref 0 and expected = ref 0 in
  for src = 0 to n - 1 do
    let storers = Groups.storers t.groups src in
    expected := !expected + max 0 (Array.length storers - 1);
    let hops_of =
      flood t ~src
        ~on_reach:(fun _ hops ->
          hop_sum := !hop_sum + hops;
          incr hop_count;
          if hops > !max_hops then max_hops := hops)
        ~on_send:(fun () -> incr messages)
    in
    Array.iter
      (fun w -> if w <> src && Hashtbl.mem hops_of w then incr reached)
      storers
  done;
  {
    messages = !messages;
    mean_hops =
      (if !hop_count = 0 then 0.0
       else float_of_int !hop_sum /. float_of_int !hop_count);
    max_hops = !max_hops;
    reached = !reached;
    expected = !expected;
  }

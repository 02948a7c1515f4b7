module Rng = Disco_util.Rng

type node = { mutable is_landmark : bool; mutable ref_n : int }

type t = {
  rng : Rng.t;
  params : Params.t;
  hysteresis : bool;
  mutable nodes : node array;
  mutable flips : int;
}

let redraw_due ~ref_n ~n =
  float_of_int (max n ref_n) /. float_of_int (max 1 (min n ref_n)) >= 2.0

let draw t ~n = Rng.bernoulli t.rng (Params.landmark_probability t.params ~n)

let fresh_node t ~n = { is_landmark = draw t ~n; ref_n = n }

let create ~rng ~params ~hysteresis ~n0 =
  let t = { rng; params; hysteresis; nodes = [||]; flips = 0 } in
  t.nodes <- Array.init n0 (fun _ -> fresh_node t ~n:n0);
  t

let resize t ~n =
  let cur = Array.length t.nodes in
  if n > cur then
    t.nodes <- Array.append t.nodes (Array.init (n - cur) (fun _ -> fresh_node t ~n))
  else if n < cur then t.nodes <- Array.sub t.nodes 0 n

let observe t ~n =
  resize t ~n;
  let flipped = ref 0 in
  Array.iter
    (fun node ->
      let due = (not t.hysteresis) || redraw_due ~ref_n:node.ref_n ~n in
      if due then begin
        let status = draw t ~n in
        if t.hysteresis then node.ref_n <- n;
        if status <> node.is_landmark then begin
          node.is_landmark <- status;
          incr flipped
        end
      end)
    t.nodes;
  t.flips <- t.flips + !flipped;
  !flipped

let landmark_count t =
  Array.fold_left (fun acc node -> if node.is_landmark then acc + 1 else acc) 0 t.nodes

let total_flips t = t.flips
let population t = Array.length t.nodes

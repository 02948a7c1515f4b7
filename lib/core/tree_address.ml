module Graph = Disco_graph.Graph

type t = {
  landmarks : Landmarks.t;
  labels : int array; (* per node: allocated label *)
  range_hi : int array; (* per node: end (exclusive) of its subtree block *)
  children : int list array; (* landmark-forest children *)
  bits : int;
}

let build g (landmarks : Landmarks.t) =
  let n = Graph.n g in
  let children = Array.make n [] in
  for v = 0 to n - 1 do
    let p = landmarks.Landmarks.forest_parent.(v) in
    if p >= 0 then children.(p) <- v :: children.(p)
  done;
  (* Subtree sizes, then DFS label allocation: node takes the first label
     of its block, children take consecutive sub-blocks sized by their
     subtrees (the "proportional partition" is exact here because the
     static simulator knows descendant counts precisely). *)
  let size = Array.make n 1 in
  let rec compute_size v =
    List.iter
      (fun c ->
        compute_size c;
        size.(v) <- size.(v) + size.(c))
      children.(v);
    ()
  in
  Array.iter (fun lm -> compute_size lm) landmarks.Landmarks.ids;
  let labels = Array.make n 0 in
  let range_hi = Array.make n 0 in
  let rec allocate v lo =
    labels.(v) <- lo;
    range_hi.(v) <- lo + size.(v);
    let next = ref (lo + 1) in
    List.iter
      (fun c ->
        allocate c !next;
        next := !next + size.(c))
      children.(v)
  in
  Array.iter (fun lm -> allocate lm 0) landmarks.Landmarks.ids;
  let bits =
    let rec go b cap = if cap >= n then b else go (b + 1) (2 * cap) in
    if n <= 1 then 1 else go 1 2
  in
  { landmarks; labels; range_hi; children; bits }

let bits t = t.bits
(* disco-lint: allow L10 test_tree_address's "labels unique per tree" and "landmark root label" check the allocation route walks through it *)
let label_of t v = t.labels.(v)

(* disco-lint: allow L10 test_tree_address's "route matches forest" proves through it that the ceil(log2 n)-bit labels the addr figure sizes actually route *)
let route t v =
  let lm = t.landmarks.Landmarks.nearest.(v) in
  let target = t.labels.(v) in
  let rec walk u acc =
    if t.labels.(u) = target then List.rev (u :: acc)
    else begin
      match
        List.find_opt
          (fun c -> t.labels.(c) <= target && target < t.range_hi.(c))
          t.children.(u)
      with
      | Some c -> walk c (u :: acc)
      | None -> invalid_arg "Tree_address.route: label not in any child block"
    end
  in
  walk lm []

let byte_size ~name_bytes t = name_bytes + ((t.bits + 7) / 8)

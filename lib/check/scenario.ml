module Gen = Disco_graph.Gen
module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Json = Disco_util.Json

type family = Gnm | Geometric | As_level | Router_level | Ring | Grid | Star
type workload = Uniform | Local | Hotspot

type t = {
  seed : int;
  family : family;
  n : int;
  pairs : int;
  workload : workload;
  churn_steps : int;
}

let min_nodes = 16
let all_families = [ Gnm; Geometric; As_level; Router_level; Ring; Grid; Star ]

let family_name = function
  | Gnm -> "gnm"
  | Geometric -> "geometric"
  | As_level -> "as-level"
  | Router_level -> "router-level"
  | Ring -> "ring"
  | Grid -> "grid"
  | Star -> "star"

let family_of_string s =
  List.find_opt (fun f -> String.equal (family_name f) s) all_families

let all_workloads = [ Uniform; Local; Hotspot ]

let workload_name = function
  | Uniform -> "uniform"
  | Local -> "local"
  | Hotspot -> "hotspot"

let workload_of_string s =
  List.find_opt (fun w -> String.equal (workload_name w) s) all_workloads

(* Derivation purposes: each random aspect of a scenario draws from its own
   stream so that, e.g., shrinking the pair count never perturbs the
   topology. Disjoint from Testbed's purposes (1..5, 100+). *)
let graph_purpose = 10
let pairs_purpose = 11
let churn_schedule_purpose = 12
let churn_population_purpose = 13

let generate ~run_seed ~case ~max_nodes =
  let seed = Rng.derive run_seed case in
  let rng = Rng.create seed in
  let family = List.nth all_families (Rng.int rng (List.length all_families)) in
  let span = max 1 (max_nodes - min_nodes + 1) in
  let n = min_nodes + Rng.int rng span in
  let pairs = 8 + Rng.int rng 25 in
  let workload = List.nth all_workloads (Rng.int rng (List.length all_workloads)) in
  let churn_steps = if Rng.bool rng then 4 + Rng.int rng 9 else 0 in
  { seed; family; n; pairs; workload; churn_steps }

let graph t =
  let rng = Rng.create (Rng.derive t.seed graph_purpose) in
  match t.family with
  | Gnm -> Gen.gnm ~rng ~n:t.n ~m:(4 * t.n)
  | Geometric -> Gen.geometric ~rng ~n:t.n ~avg_degree:8.0
  | As_level -> Gen.internet_as ~rng ~n:t.n
  | Router_level -> Gen.internet_router ~rng ~n:t.n
  | Ring -> Gen.ring ~n:t.n
  | Grid ->
      let rows = max 2 (int_of_float (sqrt (float_of_int t.n))) in
      let cols = max 2 (t.n / rows) in
      Gen.grid ~rows ~cols
  | Star ->
      (* Largest branch factor whose star-of-stars fits in n nodes. *)
      let b = ref 2 in
      while 1 + (!b + 1) + ((!b + 1) * (!b + 1)) <= t.n do
        incr b
      done;
      Gen.star_of_stars ~branch:!b

let draw_pairs t g =
  let n = Graph.n g in
  if n < 2 then []
  else begin
    let rng = Rng.create (Rng.derive t.seed pairs_purpose) in
    let other_than v =
      let d = ref (Rng.int rng n) in
      while !d = v do
        d := Rng.int rng n
      done;
      !d
    in
    match t.workload with
    | Uniform ->
        List.init t.pairs (fun _ ->
            let s = Rng.int rng n in
            (s, other_than s))
    | Hotspot ->
        let dst = Rng.int rng n in
        List.init t.pairs (fun _ -> (other_than dst, dst))
    | Local ->
        (* Location-dependent traffic: destinations from the source's
           truncated-Dijkstra ball, the workload where NDDisco's
           vicinity shortcuts dominate. *)
        let k = min (n - 1) (4 + Rng.int rng 13) in
        let ws = Dijkstra.make_workspace g in
        List.init t.pairs (fun _ ->
            let s = Rng.int rng n in
            let trunc = Dijkstra.k_closest ~ws g s (k + 1) in
            let order = trunc.Dijkstra.order in
            let len = Array.length order in
            if len <= 1 then (s, other_than s)
            else (s, order.(1 + Rng.int rng (len - 1))))
  end

let to_string t =
  Printf.sprintf "seed=%d,family=%s,n=%d,pairs=%d,workload=%s,churn=%d" t.seed
    (family_name t.family) t.n t.pairs (workload_name t.workload) t.churn_steps

let of_string s =
  let parse_field acc field =
    match acc with
    | Error _ as e -> e
    | Ok sc -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "malformed field %S (expected key=value)" field)
        | Some i -> (
            let key = String.sub field 0 i in
            let value = String.sub field (i + 1) (String.length field - i - 1) in
            let int_of name =
              match int_of_string_opt value with
              | Some v -> Ok v
              | None -> Error (Printf.sprintf "%s: not an integer %S" name value)
            in
            match key with
            | "seed" -> Result.map (fun v -> { sc with seed = v }) (int_of "seed")
            | "n" -> Result.map (fun v -> { sc with n = v }) (int_of "n")
            | "pairs" -> Result.map (fun v -> { sc with pairs = v }) (int_of "pairs")
            | "churn" ->
                Result.map (fun v -> { sc with churn_steps = v }) (int_of "churn")
            | "family" -> (
                match family_of_string value with
                | Some f -> Ok { sc with family = f }
                | None -> Error (Printf.sprintf "unknown family %S" value))
            | "workload" -> (
                match workload_of_string value with
                | Some w -> Ok { sc with workload = w }
                | None -> Error (Printf.sprintf "unknown workload %S" value))
            | _ -> Error (Printf.sprintf "unknown key %S" key)))
  in
  let default =
    { seed = 0; family = Gnm; n = min_nodes; pairs = 8; workload = Uniform; churn_steps = 0 }
  in
  String.split_on_char ',' s
  |> List.filter (fun f -> String.length f > 0)
  |> List.fold_left parse_field (Ok default)

let to_json t =
  Json.Obj
    [
      ("seed", Json.Int t.seed);
      ("family", Json.Str (family_name t.family));
      ("n", Json.Int t.n);
      ("pairs", Json.Int t.pairs);
      ("workload", Json.Str (workload_name t.workload));
      ("churn_steps", Json.Int t.churn_steps);
    ]

let replay_command t =
  Printf.sprintf "dune exec bin/disco_check.exe -- --replay '%s'" (to_string t)

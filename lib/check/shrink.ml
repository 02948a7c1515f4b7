open Scenario

(* Order a candidate list from most to least aggressive: the greedy loop
   takes the first variant that still fails, so big cuts are tried first. *)
let candidates (sc : t) =
  let smaller_n =
    [ sc.n / 2; sc.n * 3 / 4; sc.n - 1 ]
    |> List.map (fun n -> max min_nodes n)
    |> List.filter (fun n -> n < sc.n)
    |> List.map (fun n -> { sc with n })
  in
  let fewer_pairs =
    [ sc.pairs / 2; sc.pairs - 1 ]
    |> List.map (fun p -> max 1 p)
    |> List.filter (fun p -> p < sc.pairs)
    |> List.map (fun pairs -> { sc with pairs })
  in
  let no_churn = if sc.churn_steps > 0 then [ { sc with churn_steps = 0 } ] else [] in
  let plain_workload =
    if sc.workload <> Uniform then [ { sc with workload = Uniform } ] else []
  in
  let simpler_family =
    (* Gnm is the least structured family; Ring the smallest to eyeball. *)
    match sc.family with
    | Gnm -> []
    | Ring -> [ { sc with family = Gnm } ]
    | _ -> [ { sc with family = Gnm }; { sc with family = Ring } ]
  in
  List.concat [ smaller_n; no_churn; plain_workload; fewer_pairs; simpler_family ]
  |> List.filter (fun c -> c <> sc)

let budget = 40

let minimize ~still_fails sc =
  let spent = ref 0 in
  let rec go sc =
    let rec try_candidates = function
      | [] -> sc
      | c :: rest ->
          if !spent >= budget then sc
          else begin
            incr spent;
            if still_fails c then go c else try_candidates rest
          end
    in
    try_candidates (candidates sc)
  in
  let minimized = go sc in
  (minimized, !spent)

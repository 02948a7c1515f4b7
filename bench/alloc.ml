(* Allocs-per-hop microbenchmark (`--figure alloc`): Gc.minor_words around
   hop-by-hop walks, per registered scheme, for first (resolving) and later
   (converged) packets.  This is the measured counterpart of disco-lint's
   L7 discipline: the typed pass proves the hop loop calls no allocating
   helper it didn't waive; this reports what the waived allocations —
   trace recording, per-walk setup, the schemes' header rewrites — cost in
   minor words per hop.  One more row, dynamic/query, measures the
   event-driven protocol's `Network.route` on a converged network, where
   each resolving decision looks up its owner on the shared ring.
   `--json FILE` snapshots the table (BENCH_alloc.json keeps the committed
   baseline). *)

module Testbed = Disco_experiments.Testbed
module Routers = Disco_experiments.Routers
module Protocol = Disco_experiments.Protocol
module Scale = Disco_experiments.Scale
module Telemetry = Disco_util.Telemetry
module Json = Disco_util.Json
module Graph = Disco_graph.Graph
module Rng = Disco_util.Rng
module Network = Disco_dynamic.Network
module D = Disco_core.Dataplane

type row = {
  scheme : string;
  kind : string; (* "first" | "later" *)
  walks : int;
  hops : int;
  minor_words : float;
  words_per_hop : float;
  words_per_walk : float;
}

(* Sampled source-destination pairs over [0, n), deterministic in [rng]. *)
let sample_pairs rng ~n ~count =
  List.init count (fun _ ->
      let s = Rng.int rng n in
      let rec draw () =
        let d = Rng.int rng n in
        if d = s then draw () else d
      in
      (s, draw ()))

(* A warm-up pass of [one] (hops of one walk) over [pairs] populates lazy
   caches (pivot trees, resolver state), so the measured second pass sees
   steady-state allocation only. *)
let measure ~scheme ~kind ~pairs one =
  ignore (List.fold_left one 0 pairs : int);
  Gc.full_major ();
  let before = Gc.minor_words () in
  let hops = List.fold_left one 0 pairs in
  let minor_words = Gc.minor_words () -. before in
  let walks = List.length pairs in
  {
    scheme;
    kind;
    walks;
    hops;
    minor_words;
    words_per_hop = (if hops = 0 then 0.0 else minor_words /. float_of_int hops);
    words_per_walk = minor_words /. float_of_int walks;
  }

let measure_kind (type a) (module R : Protocol.ROUTER with type t = a) (rt : a)
    ~graph ~kind ~pairs =
  let tel = Telemetry.create () in
  let ttl = R.ttl_factor * Graph.n graph in
  let header =
    match kind with
    | "first" -> fun ~src ~dst -> R.first_header rt ~tel ~src ~dst
    | _ -> fun ~src ~dst -> R.later_header rt ~tel ~src ~dst
  in
  measure ~scheme:R.name ~kind ~pairs (fun acc (src, dst) ->
      let tr = D.walk ~ttl graph ~forward:(R.forward rt) ~src (header ~src ~dst) in
      acc + tr.D.hops)

let measure_scheme tb ~pairs (p : Protocol.packed) =
  let (module R) = p in
  let rt = R.build tb in
  let graph = tb.Testbed.graph in
  [
    measure_kind (module R) rt ~graph ~kind:"first" ~pairs;
    measure_kind (module R) rt ~graph ~kind:"later" ~pairs;
  ]

(* Network.route on G(128, 512) after a 300 s cold start, whatever the
   scale: the event-driven cold start grows about n^2.  Hops are those of
   the delivered paths. *)
let measure_dynamic ~seed ~walks =
  let n = 128 in
  let rng = Rng.create (Rng.derive seed 72) in
  let graph = Disco_graph.Gen.gnm ~rng ~n ~m:(4 * n) in
  let net = Network.create ~rng ~graph ~n_estimate:n () in
  Network.activate_all net;
  Network.run_until net 300.0;
  let pairs = sample_pairs rng ~n ~count:walks in
  measure ~scheme:"dynamic" ~kind:"query" ~pairs (fun acc (src, dst) ->
      match Network.route net ~src ~dst with
      | Some path -> acc + List.length path - 1
      | None -> acc)

let json_of_rows ~seed ~n ~walks rows =
  Json.to_string
    (Json.Obj
       [
         ("figure", Json.Str "alloc");
         ("seed", Json.Int seed);
         ("n", Json.Int n);
         ("walks_per_row", Json.Int walks);
         ( "rows",
           Json.Arr
             (List.map
                (fun r ->
                  Json.Obj
                    [
                      ("scheme", Json.Str r.scheme);
                      ("kind", Json.Str r.kind);
                      ("walks", Json.Int r.walks);
                      ("hops", Json.Int r.hops);
                      ("minor_words", Json.Num r.minor_words);
                      ("words_per_hop", Json.Num r.words_per_hop);
                      ("words_per_walk", Json.Num r.words_per_walk);
                    ])
                rows) );
       ])

(* --- baseline gate (--baseline FILE) --------------------------------

   Structural parse of the committed BENCH_alloc.json via
   {!Disco_util.Json} (shared with the scaling bench's checkpoints).
   This replaced a per-line string scanner that located values by byte
   offset from the key — it silently mis-read rows whose members were
   reordered from the exact [json_of_rows] layout.  Allocation counts
   are deterministic for a fixed seed and build, so the 20% headroom is
   for compiler-version drift, not noise. *)

let parse_baseline path =
  match Json.of_file path with
  | Error e -> raise (Sys_error (Printf.sprintf "%s: %s" path e))
  | Ok doc ->
      List.filter_map
        (fun row ->
          match
            ( Json.string_member "scheme" row,
              Json.string_member "kind" row,
              Json.float_member "words_per_hop" row )
          with
          | Some scheme, Some kind, Some wph -> Some ((scheme, kind), wph)
          | _ -> None)
        (Json.list_member "rows" doc)

(* Fail (Sys_error, so the CLI exits nonzero) on any row whose words/hop
   regressed more than 20% over the committed baseline.  Rows without a
   baseline entry (a newly registered scheme) pass with a notice — they
   gate once the baseline is regenerated. *)
let gate ~baseline rows =
  let base = parse_baseline baseline in
  let regressions =
    List.filter_map
      (fun r ->
        match List.assoc_opt (r.scheme, r.kind) base with
        | None ->
            Printf.printf "  (no baseline for %s/%s; skipped)\n" r.scheme r.kind;
            None
        | Some b ->
            if r.words_per_hop > b *. 1.2 then
              Some
                (Printf.sprintf "%s/%s: %.1f words/hop > %.1f (baseline %.1f +20%%)"
                   r.scheme r.kind r.words_per_hop (b *. 1.2) b)
            else None)
      rows
  in
  match regressions with
  | [] -> Printf.printf "alloc gate: all rows within 20%% of %s\n" baseline
  | rs ->
      raise
        (Sys_error
           (Printf.sprintf "alloc regression vs %s:\n  %s" baseline
              (String.concat "\n  " rs)))

let run ?json ?baseline ~seed scale =
  let n = match scale with Scale.Small -> 512 | Scale.Paper -> 4096 in
  let walks = match scale with Scale.Small -> 200 | Scale.Paper -> 500 in
  Printf.printf
    "\n== alloc: minor words per hop (Gc.minor_words, n=%d, %d walks/row) ==\n%!"
    n walks;
  let tb = Testbed.make ~seed Disco_graph.Gen.Geometric ~n in
  let pairs =
    sample_pairs (Testbed.rng tb ~purpose:71) ~n:(Graph.n tb.Testbed.graph) ~count:walks
  in
  let rows =
    List.concat_map (measure_scheme tb ~pairs) (Routers.all ()) @ [ measure_dynamic ~seed ~walks ]
  in
  Printf.printf "  %-12s %-6s %8s %10s %14s %15s\n" "scheme" "kind" "walks"
    "hops" "words/hop" "words/walk";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %-6s %8d %10d %14.1f %15.1f\n" r.scheme r.kind
        r.walks r.hops r.words_per_hop r.words_per_walk)
    rows;
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (json_of_rows ~seed ~n ~walks rows);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path);
  match baseline with None -> () | Some b -> gate ~baseline:b rows

(* addr and header: how many bytes names, addresses and headers cost on
   the wire. Neither is a sampled-pairs measurement — addr is per-node,
   header samples pairs but never needs shortest-path distances — so both
   keep their own loops. *)

module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Stats = Disco_util.Stats
module Core = Disco_core

(* addr: §4.2 explicit-route address sizes on the router-level topology. *)
let addr (cfg : Engine.config) =
  let { Engine.seed; scale; _ } = cfg in
  let n = Scale.big_n scale in
  Report.section
    (Printf.sprintf
       "addr: explicit-route address size on router-level topology; n=%d" n);
  let tb = Testbed.make ~seed Gen.Router_level ~n in
  let nd = Testbed.nd tb in
  let sizes =
    Array.init n (fun v ->
        float_of_int (Core.Address.route_byte_size (Core.Nddisco.address nd v)))
  in
  Report.summary_line ~label:"route bytes" sizes;
  Report.kv "paper (192k-node CAIDA router map)" "mean=2.93 p95=5 max=10.625";
  (* Ablation: the fixed-width tree-address variant §4.2 rejects. The
     paper's claim is that it "would actually increase the mean address
     size in practice" — compare. *)
  let ta = Core.Tree_address.build tb.Testbed.graph nd.Core.Nddisco.landmarks in
  (* Label bytes only: the explicit-route sizes above exclude the name too. *)
  let fixed_bytes = float_of_int (Core.Tree_address.byte_size ~name_bytes:0 ta) in
  Report.kv "tree-address variant"
    (Printf.sprintf "fixed %d bits = %.0f bytes per address (vs %.2f mean explicit)"
       (Core.Tree_address.bits ta) fixed_bytes (Stats.mean sizes));
  Report.kv "paper's claim holds"
    (if fixed_bytes > Stats.mean sizes then "yes (fixed > mean explicit)"
     else "no at this scale")

(* header: wire cost of the packet header under the default heuristic vs
   Path Knowledge, which must carry the route's global node ids (§4.2). *)
let header (cfg : Engine.config) =
  let { Engine.seed; _ } = cfg in
  let n = 2048 in
  Report.section
    (Printf.sprintf "header: first-packet header bytes by heuristic; router-level n=%d" n);
  let tb = Testbed.make ~seed Gen.Router_level ~n in
  let rng = Testbed.rng tb ~purpose:61 in
  let collect heuristic =
    let sizes = ref [] in
    for _ = 1 to 400 do
      let s = Rng.int rng n and t = Rng.int rng n in
      if s <> t then begin
        let c = Core.Header.first_packet tb.Testbed.disco ~heuristic ~name_bytes:20 ~src:s ~dst:t in
        sizes := float_of_int c.Core.Header.total :: !sizes
      end
    done;
    Stats.summarize (Array.of_list !sizes)
  in
  let rows =
    List.map
      (fun h ->
        let s = collect h in
        [ Core.Shortcut.name h;
          Printf.sprintf "%.1f" s.Stats.mean;
          Printf.sprintf "%.0f" s.Stats.p95;
          Printf.sprintf "%.0f" s.Stats.max ])
      [ Core.Shortcut.No_path_knowledge; Core.Shortcut.Path_knowledge ]
  in
  Report.table ~header:[ "heuristic"; "header-bytes mean"; "p95"; "max" ] rows;
  Report.kv "note" "20B self-certifying name included in every header";
  (* Walked header cost across every registered scheme: the shared walker
     accounts the header as carried at each sending node, so these are
     data-plane measurements, not static address sizes. A smaller testbed
     keeps the expensive control planes (VRR's ring setup) affordable. *)
  let wn = 1024 in
  let wtb = Testbed.make ~seed Gen.Router_level ~n:wn in
  let graph = wtb.Testbed.graph in
  let wrng = Testbed.rng wtb ~purpose:61 in
  let tel = cfg.Engine.tel in
  let scheme_rows =
    List.map
      (fun packed ->
        let module R = (val packed : Protocol.ROUTER) in
        let module D = Core.Dataplane in
        let rt = R.build wtb in
        let maxes = ref [] and per_hop = ref [] in
        for _ = 1 to 300 do
          let s = Rng.int wrng wn and t = Rng.int wrng wn in
          if s <> t then begin
            let tr = Walk.first_trace (module R) rt ~tel ~graph ~src:s ~dst:t in
            if tr.D.hops > 0 then begin
              maxes := float_of_int tr.D.header_bytes_max :: !maxes;
              per_hop :=
                (float_of_int tr.D.header_bytes_total /. float_of_int tr.D.hops)
                :: !per_hop
            end
          end
        done;
        let sm = Stats.summarize (Array.of_list !maxes) in
        let sh = Stats.summarize (Array.of_list !per_hop) in
        [
          R.name;
          Printf.sprintf "%.1f" sh.Stats.mean;
          Printf.sprintf "%.1f" sm.Stats.mean;
          Printf.sprintf "%.0f" sm.Stats.max;
        ])
      (Routers.all ())
  in
  Report.section
    (Printf.sprintf
       "header (walked): per-scheme header bytes on walked first packets; \
        router-level n=%d" wn);
  Report.table
    ~header:[ "scheme"; "per-hop mean"; "per-packet max mean"; "max" ]
    scheme_rows;
  Report.kv "packets walked" (string_of_int tel.Disco_util.Telemetry.packets_walked)

module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Core = Disco_core

type t = {
  seed : int;
  kind : Gen.kind option;
  graph : Disco_graph.Graph.t;
  disco : Core.Disco.t;
  s4 : Disco_baselines.S4.t;
  mutable vrr_cache : Disco_baselines.Vrr.t option;
}

let rng_for seed purpose = Rng.create ((seed * 1_000_003) + purpose)

let of_graph ?(seed = 42) ?(params = Core.Params.default) ?kind graph =
  let nd = Core.Nddisco.build ~params ~rng:(rng_for seed 2) graph in
  let disco = Core.Disco.of_nddisco ~rng:(rng_for seed 3) nd in
  let s4 = Disco_baselines.S4.of_nddisco nd disco.Core.Disco.resolution in
  { seed; kind; graph; disco; s4; vrr_cache = None }

let make ?(seed = 42) ?(params = Core.Params.default) kind ~n =
  let graph = Gen.by_kind ~rng:(rng_for seed 1) kind ~n in
  of_graph ~seed ~params ~kind graph

let vrr t =
  match t.vrr_cache with
  | Some v -> v
  | None ->
      let v = Disco_baselines.Vrr.build ~rng:(rng_for t.seed 5) t.graph in
      t.vrr_cache <- Some v;
      v

let rng t ~purpose = rng_for t.seed (100 + purpose)
let nd t = t.disco.Core.Disco.nd
let trees t = (nd t).Core.Nddisco.trees

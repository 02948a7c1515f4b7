module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Sim = Disco_sim.Sim

type outcome = {
  estimates : float array;
  rounds_run : int;
  messages : int;
  sketch_bytes : int;
}

(* Eccentricity of node 0 in hops, doubled, bounds the diameter. *)
let diameter_estimate graph =
  let n = Graph.n graph in
  let dist = Array.make n (-1) in
  dist.(0) <- 0;
  let q = Queue.create () in
  Queue.push 0 q;
  let far = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_neighbors graph u (fun v _ ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          if dist.(v) > !far then far := dist.(v);
          Queue.push v q
        end)
  done;
  2 * !far

(* disco-lint: allow L10 ?rounds is how test_synopsis's "few rounds incomplete" stops the gossip before it converges *)
let estimate_n ~graph ~node_name ?(buckets = 64) ?rounds () =
  let n = Graph.n graph in
  let rounds =
    match rounds with Some r -> r | None -> diameter_estimate graph + 2
  in
  let sketches =
    Array.init n (fun v ->
        let s = Fm_sketch.create ~buckets in
        Fm_sketch.add s (node_name v);
        s)
  in
  let sim = Sim.create ~graph () in
  Sim.set_handler sim (fun node ~src:_ sketch ->
      Fm_sketch.merge_into sketches.(node) sketch);
  (* Round r at time r: every node pushes its current sketch to all
     neighbors. Link latencies are ignored for round pacing (rounds are a
     periodic timer); merging happens as messages arrive. *)
  for r = 0 to rounds - 1 do
    Sim.schedule sim ~delay:(float_of_int r) (fun () ->
        for v = 0 to n - 1 do
          Graph.iter_neighbors graph v (fun nbr _ ->
              Sim.send_direct sim ~src:v ~dst:nbr ~latency:0.5
                (Fm_sketch.copy sketches.(v)))
        done)
  done;
  Sim.run sim;
  {
    estimates = Array.map Fm_sketch.estimate sketches;
    rounds_run = rounds;
    messages = Sim.messages_sent sim;
    sketch_bytes = Fm_sketch.byte_size (Fm_sketch.create ~buckets);
  }

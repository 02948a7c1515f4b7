module Heap = Disco_util.Heap
module Graph = Disco_graph.Graph

type 'msg event = Deliver of { dst : int; src : int; msg : 'msg } | Timer of (unit -> unit)

type 'msg t = {
  graph : Graph.t;
  events : 'msg event Heap.t;
  mutable now : float;
  mutable handler : (int -> src:int -> 'msg -> unit) option;
  mutable total_sent : int;
  telemetry : Disco_util.Telemetry.t option;
}

let create ?telemetry ~graph () =
  {
    graph;
    events = Heap.create (Timer ignore);
    now = 0.0;
    handler = None;
    total_sent = 0;
    telemetry;
  }

let set_handler t f = t.handler <- Some f
let time t = t.now

let count_send t =
  t.total_sent <- t.total_sent + 1;
  match t.telemetry with
  | Some tel -> Disco_util.Telemetry.message_sent tel
  | None -> ()

let send t ~src ~dst msg =
  match Graph.edge_weight t.graph src dst with
  | None -> invalid_arg "Sim.send: src and dst are not adjacent"
  | Some latency ->
      count_send t;
      Heap.push t.events (t.now +. latency) (Deliver { dst; src; msg })

let send_direct t ~src ~dst ~latency msg =
  if latency < 0.0 then invalid_arg "Sim.send_direct: negative latency";
  count_send t;
  Heap.push t.events (t.now +. latency) (Deliver { dst; src; msg })

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  Heap.push t.events (t.now +. delay) (Timer f)

let run ?until t =
  let handler =
    match t.handler with
    | Some h -> h
    | None -> invalid_arg "Sim.run: no handler installed"
  in
  let until = Option.value until ~default:infinity in
  let continue = ref true in
  while !continue && not (Heap.is_empty t.events) do
    let at = Heap.min_prio t.events in
    if at > until then continue := false
    else begin
      t.now <- at;
      match Heap.pop_min t.events with
      | Deliver { dst; src; msg } -> handler dst ~src msg
      | Timer f -> f ()
    end
  done

let messages_sent t = t.total_sent

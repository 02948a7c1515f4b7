(** Wire-format packet headers.

    What a Disco packet actually carries, and what it costs. A first
    packet ships the destination's flat name plus, once an address is
    known, the remaining explicit route (compact per-hop labels). The
    Up-Down-Stream / Path-Knowledge heuristics additionally require
    "listing the global identifiers of every node along the path ...
    on a single initial packet" (§4.2) — an O(route · log n) surcharge
    this module makes measurable (the [header] experiment). *)

type cost = {
  name_bytes : int;  (** the flat name carried end-to-end *)
  label_bytes : int;  (** packed explicit-route labels at the source *)
  id_list_bytes : int;
      (** global node ids of the route (0 unless the heuristic needs them) *)
  total : int;
}

val first_packet :
  Disco.t ->
  heuristic:Shortcut.heuristic ->
  name_bytes:int ->
  src:int ->
  dst:int ->
  cost
(** Header of the first packet as it leaves the source, for the route the
    given heuristic produces. A self-certifying SHA-1-sized identifier is
    [name_bytes = 20]. *)

val later_packet : Disco.t -> name_bytes:int -> src:int -> dst:int -> cost
(** Later packets carry the name plus the explicit route only. *)

(** Wire messages of the dynamic Disco protocol.

    Everything a live deployment would exchange: periodic hellos (liveness),
    path-vector route announcements (landmarks and vicinities, §4.2),
    soft-state address inserts to the resolution database (§4.3), and the
    directional address gossip of the dissemination overlay (§4.4).

    Addresses travel as (landmark, explicit node path); the byte-level
    label encoding is exercised by {!Disco_core.Address} and omitted here
    to keep the simulation readable. *)

type address = { lm : int; lm_path : int list  (** landmark .. owner *) }

val equal_address : address -> address -> bool
(** Same landmark and same explicit route. *)

type t =
  | Hello  (** neighbor liveness beacon *)
  | Route_ann of {
      dest : int;
      dest_is_landmark : bool;
      dist : float;
      path : int list;  (** sender .. dest *)
    }
  | Route_withdraw of { dest : int }
      (** poisoned route: the sender no longer stands behind the path to
          [dest] it previously advertised. Receivers whose stored route
          uses the sender as first hop drop it and propagate, so routes to
          a fail-stopped destination die in O(diameter) rather than by
          slow count-to-infinity under soft-state expiry. *)
  | Resolve_insert of {
      origin : int;
      addr : address;
      target_lm : int;  (** owner landmark the insert is routed toward *)
    }
  | Addr_gossip of {
      origin : int;
      origin_hash : Disco_hash.Hash_space.id;
      addr : address;
      sender_hash : Disco_hash.Hash_space.id;
          (** directional rule: forward only away from the sender in hash
              space *)
    }

type address = { lm : int; lm_path : int list }

let equal_address a b = Int.equal a.lm b.lm && List.equal Int.equal a.lm_path b.lm_path

type t =
  | Hello
  | Route_ann of {
      dest : int;
      dest_is_landmark : bool;
      dist : float;
      path : int list;
    }
  | Route_withdraw of { dest : int }
  | Resolve_insert of {
      origin : int;
      addr : address;
      target_lm : int;
    }
  | Addr_gossip of {
      origin : int;
      origin_hash : Disco_hash.Hash_space.id;
      addr : address;
      sender_hash : Disco_hash.Hash_space.id;
    }

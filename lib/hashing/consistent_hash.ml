(* Ring points packed as parallel int arrays: (hi, lo) unsigned 32-bit
   halves of the position plus the owning node id. Plain int arrays keep
   successor lookup allocation-free (no Int64 boxing on reads) and make
   the ring's storage cost exact for state accounting. *)
type t = {
  phi : int array; (* position, top 32 bits *)
  plo : int array; (* position, bottom 32 bits *)
  powner : int array;
  owner_ids : int array;
}

let split64 x =
  ( Int64.to_int (Int64.shift_right_logical x 32),
    Int64.to_int (Int64.logand x 0xFFFFFFFFL) )

let create ?(replicas = 1) ~owners ~owner_name () =
  if replicas < 1 then invalid_arg "Consistent_hash.create: replicas";
  let points =
    Array.concat
      (List.init replicas (fun r ->
           Array.map
             (fun o ->
               let pos =
                 Hash_space.of_name (Printf.sprintf "%s#%d" (owner_name o) r)
               in
               (pos, o))
             owners))
  in
  Array.sort
    (fun (a, oa) (b, ob) ->
      let c = Hash_space.compare_unsigned a b in
      if c <> 0 then c else Int.compare oa ob)
    points;
  let n = Array.length points in
  let phi = Array.make n 0 and plo = Array.make n 0 and powner = Array.make n 0 in
  Array.iteri
    (fun i (pos, o) ->
      let hi, lo = split64 pos in
      phi.(i) <- hi;
      plo.(i) <- lo;
      powner.(i) <- o)
    points;
  { phi; plo; powner; owner_ids = Array.copy owners }

let is_empty t = Array.length t.phi = 0

(* Index of the key's successor: the first point >= key, wrapping to 0. *)
let successor t key =
  let n = Array.length t.phi in
  let khi, klo = split64 key in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let less =
      t.phi.(mid) < khi || (t.phi.(mid) = khi && t.plo.(mid) < klo)
    in
    if less then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let owner_of t key =
  if is_empty t then invalid_arg "Consistent_hash.owner_of: empty ring";
  t.powner.(successor t key)

(* The admitted owners' points are a subsequence of this ring in the same
   (position, owner) order, so the first admitted point from the key's
   successor on, wrapping, is the successor on their own ring. *)
let owner_among t key ~member =
  let n = Array.length t.phi in
  let rec scan i left =
    if left = 0 then None
    else if member t.powner.(i) then Some t.powner.(i)
    else scan (if i + 1 = n then 0 else i + 1) (left - 1)
  in
  if n = 0 then None else scan (successor t key) n

let owner_of_name t name = owner_of t (Hash_space.of_name name)

let byte_size t = 8 * (3 * Array.length t.phi)

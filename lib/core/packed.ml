module Grow = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 16) () = { data = Array.make (max 1 capacity) 0; len = 0 }
  let len t = t.len

  let push t x =
    if t.len >= Array.length t.data then begin
      let bigger = Array.make (2 * Array.length t.data) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

module Csr = struct
  type t = { off : int array; data : int array }

  let of_rows rows =
    let n = Array.length rows in
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i) + Array.length rows.(i)
    done;
    let data = Array.make off.(n) 0 in
    for i = 0 to n - 1 do
      Array.blit rows.(i) 0 data off.(i) (Array.length rows.(i))
    done;
    { off; data }

  let of_fn ~n ~row_len ~fill =
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i) + row_len i
    done;
    let data = Array.make off.(n) 0 in
    for i = 0 to n - 1 do
      fill i data off.(i)
    done;
    { off; data }

  let of_parts ~off ~data =
    let n = Array.length off - 1 in
    if n < 0 || off.(0) <> 0 || off.(n) <> Array.length data then
      invalid_arg "Packed.Csr.of_parts";
    for i = 0 to n - 1 do
      if off.(i) > off.(i + 1) then invalid_arg "Packed.Csr.of_parts"
    done;
    { off; data }

  let rows t = Array.length t.off - 1
  let row_len t i = t.off.(i + 1) - t.off.(i)
  let row_off t i = t.off.(i)
  let get t i j = t.data.(t.off.(i) + j)

  let iter_row t i f =
    for j = t.off.(i) to t.off.(i + 1) - 1 do
      f t.data.(j)
    done

  let sub_row t i = Array.sub t.data t.off.(i) (t.off.(i + 1) - t.off.(i))

  (* Lower bound in data.[lo,hi): first index holding a value >= x.
     Top-level and argument-threaded (no refs, no closure) so the row
     membership probe stays off the minor heap (lint L7), same shape as
     [Graph.slot_between]. *)
  let rec lower_bound data x lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if data.(mid) < x then lower_bound data x (mid + 1) hi
      else lower_bound data x lo mid

  let find_sorted t i x =
    let stop = t.off.(i + 1) in
    let idx = lower_bound t.data x t.off.(i) stop in
    if idx < stop && t.data.(idx) = x then idx - t.off.(i) else -1
end

module Fslab = struct
  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create n ~init =
    let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    Bigarray.Array1.fill a init;
    a

  let set (t : t) i x = Bigarray.Array1.set t i x
end

module Bitvec = struct
  type t = { words : int array; width : int; per_word : int; mask : int; len : int }

  let create ~width ~len =
    if width < 1 || width > 30 then invalid_arg "Packed.Bitvec.create: width";
    let per_word = 62 / width in
    let nwords = (len + per_word - 1) / per_word in
    {
      words = Array.make (max 1 nwords) 0;
      width;
      per_word;
      mask = (1 lsl width) - 1;
      len;
    }

  let get t i =
    (t.words.(i / t.per_word) lsr (i mod t.per_word * t.width)) land t.mask

  let set t i x =
    let w = i / t.per_word and sh = i mod t.per_word * t.width in
    t.words.(w) <- t.words.(w) land lnot (t.mask lsl sh) lor ((x land t.mask) lsl sh)

  let byte_size t = 8 * Array.length t.words
end

module Othello = struct
  type t = {
    ma : Bitvec.t;
    mb : Bitvec.t;
    mask : int;
    seed : int;
    ca : int; (* per-(seed, side) multipliers, derived from [seed] *)
    cb : int;
    n : int;
  }

  (* The salt must pick the *multiplier*, not an xor offset: everything
     before the multiply is GF(2)-linear, so an xored-in salt shifts every
     key's pre-multiply state by the same constant and key pairs that
     collide on its low bits keep colliding under every retry (a cyclic
     draw would then survive all reseeds). A salt-dependent odd multiplier
     re-randomises the high product bits folded into the output. *)
  let mult_of_salt salt =
    (0x27D4EB2F165667C5 lxor (salt * 0x2545F4914F6CDD1D)) lor 1

  (* Multiply-xor mixer over the (hi, lo) halves; wraps mod 2^63, which is
     fine for mixing. Constants fit in OCaml's 63-bit native int. *)
  let mix c hi lo =
    let x = (hi * 0x9E3779B1) lxor ((lo * 0x85EBCA6B) lsl 1) in
    let x = (x lxor (x lsr 29)) * c in
    let x = x lxor (x lsr 32) in
    x land max_int

  let next_pow2 x =
    let p = ref 1 in
    while !p < x do
      p := !p * 2
    done;
    !p

  let check_duplicates hi lo =
    let n = Array.length hi in
    let idx = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = Int.compare hi.(a) hi.(b) in
        if c <> 0 then c else Int.compare lo.(a) lo.(b))
      idx;
    for i = 1 to n - 1 do
      if hi.(idx.(i)) = hi.(idx.(i - 1)) && lo.(idx.(i)) = lo.(idx.(i - 1)) then
        invalid_arg "Packed.Othello.build: duplicate key"
    done

  (* Peel the bipartite key graph: repeatedly detach a degree-1 vertex and
     record (edge, free vertex); the xor trick recovers a degree-1 vertex's
     single remaining edge without storing adjacency lists. Assigning in
     reverse peel order makes A.(h_a k) lxor B.(h_b k) = value k hold for
     every key. Returns false on a cyclic draw (caller bumps the seed). *)
  let try_build ~seed ~m ~hi ~lo ~values ma mb =
    let n = Array.length hi in
    let mask = m - 1 in
    let ca = mult_of_salt ((2 * seed) + 1) and cb = mult_of_salt ((2 * seed) + 2) in
    let nv = 2 * m in
    let deg = Array.make nv 0 in
    let xe = Array.make nv 0 in
    let ea = Array.make (max 1 n) 0 in
    let eb = Array.make (max 1 n) 0 in
    for e = 0 to n - 1 do
      let a = mix ca hi.(e) lo.(e) land mask in
      let b = m + (mix cb hi.(e) lo.(e) land mask) in
      ea.(e) <- a;
      eb.(e) <- b;
      deg.(a) <- deg.(a) + 1;
      deg.(b) <- deg.(b) + 1;
      xe.(a) <- xe.(a) lxor e;
      xe.(b) <- xe.(b) lxor e
    done;
    let queue = Array.make nv 0 in
    let qlen = ref 0 in
    for v = 0 to nv - 1 do
      if deg.(v) = 1 then begin
        queue.(!qlen) <- v;
        incr qlen
      end
    done;
    let order_e = Array.make (max 1 n) 0 in
    let order_v = Array.make (max 1 n) 0 in
    let peeled = ref 0 in
    let qpos = ref 0 in
    while !qpos < !qlen do
      let v = queue.(!qpos) in
      incr qpos;
      if deg.(v) = 1 then begin
        let e = xe.(v) in
        order_e.(!peeled) <- e;
        order_v.(!peeled) <- v;
        incr peeled;
        let drop w =
          deg.(w) <- deg.(w) - 1;
          xe.(w) <- xe.(w) lxor e;
          if deg.(w) = 1 then begin
            queue.(!qlen) <- w;
            incr qlen
          end
        in
        drop ea.(e);
        drop eb.(e)
      end
    done;
    if !peeled < n then false
    else begin
      for i = n - 1 downto 0 do
        let e = order_e.(i) and v = order_v.(i) in
        let a = ea.(e) and b = eb.(e) in
        if v = a then Bitvec.set ma a (values.(e) lxor Bitvec.get mb (b - m))
        else Bitvec.set mb (v - m) (values.(e) lxor Bitvec.get ma a)
      done;
      true
    end

  let build ~hi ~lo ~values =
    let n = Array.length hi in
    if Array.length lo <> n || Array.length values <> n then
      invalid_arg "Packed.Othello.build: length mismatch";
    check_duplicates hi lo;
    let width =
      let vmax = Array.fold_left max 1 values in
      let w = ref 1 in
      while 1 lsl !w <= vmax do
        incr w
      done;
      if !w > 30 then invalid_arg "Packed.Othello.build: value width > 30";
      !w
    in
    let m = next_pow2 (max 2 (1 + (n * 4 / 3))) in
    let rec attempt seed =
      if seed > 100 then failwith "Packed.Othello.build: no acyclic draw";
      let ma = Bitvec.create ~width ~len:m in
      let mb = Bitvec.create ~width ~len:m in
      if try_build ~seed ~m ~hi ~lo ~values ma mb then
        {
          ma;
          mb;
          mask = m - 1;
          seed;
          ca = mult_of_salt ((2 * seed) + 1);
          cb = mult_of_salt ((2 * seed) + 2);
          n;
        }
      else attempt (seed + 1)
    in
    attempt 0

  let query t ~hi ~lo =
    Bitvec.get t.ma (mix t.ca hi lo land t.mask)
    lxor Bitvec.get t.mb (mix t.cb hi lo land t.mask)

  (* disco-lint: allow L10 test_packed's "othello rebuild on collision" detects the rebuild through it *)
  let seed t = t.seed

  let byte_size t = Bitvec.byte_size t.ma + Bitvec.byte_size t.mb
end

module Fenwick = struct
  type t = { tree : int array; n : int; msb : int; mutable sum : int }

  let create n =
    let msb = ref 1 in
    while !msb * 2 <= n do
      msb := !msb * 2
    done;
    { tree = Array.make (n + 1) 0; n; msb = (if n = 0 then 0 else !msb); sum = 0 }

  let add t i delta =
    if i < 0 || i >= t.n then invalid_arg "Packed.Fenwick.add";
    t.sum <- t.sum + delta;
    let j = ref (i + 1) in
    while !j <= t.n do
      t.tree.(!j) <- t.tree.(!j) + delta;
      j := !j + (!j land - !j)
    done;
    ()

  let prefix t i =
    let s = ref 0 and j = ref (min i t.n) in
    while !j > 0 do
      s := !s + t.tree.(!j);
      j := !j - (!j land - !j)
    done;
    !s

  let total t = t.sum

  let kth t k =
    if k < 0 || k >= t.sum then invalid_arg "Packed.Fenwick.kth";
    let pos = ref 0 and rem = ref (k + 1) and bit = ref t.msb in
    while !bit > 0 do
      let next = !pos + !bit in
      if next <= t.n && t.tree.(next) < !rem then begin
        pos := next;
        rem := !rem - t.tree.(next)
      end;
      bit := !bit / 2
    done;
    !pos
end

let split64 x =
  ( Int64.to_int (Int64.shift_right_logical x 32),
    Int64.to_int (Int64.logand x 0xFFFFFFFFL) )

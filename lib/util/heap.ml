type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }

let is_empty t = t.len = 0
(* disco-lint: allow L10 test_heap's "empty heap", "peek not destructive" and "size tracks pushes and pops" count entries through it *)
let size t = t.len

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let ensure t =
  if t.len >= Array.length t.data then begin
    let cap = max 8 (2 * Array.length t.data) in
    let data = Array.make cap t.data.(0) in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t prio value =
  let e = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if Array.length t.data = 0 then t.data <- Array.make 8 e;
  ensure t;
  t.data.(t.len) <- e;
  t.len <- t.len + 1;
  (* Sift up. *)
  let i = ref (t.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t.data.(!i) t.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.data.(!i) in
    t.data.(!i) <- t.data.(parent);
    t.data.(parent) <- tmp;
    i := parent
  done

let peek t = if t.len = 0 then None else Some (t.data.(0).prio, t.data.(0).value)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && less t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.len && less t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!i) in
          t.data.(!i) <- t.data.(!smallest);
          t.data.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.prio, top.value)
  end

let clear t = t.len <- 0

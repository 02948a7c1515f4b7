type 'r t = {
  routes : (int, 'r) Hashtbl.t;
  counted : int -> 'r -> bool;
  dist : 'r -> float;
  mutable count : int;
  mutable bound : float;
}

let create ~counted ~dist size =
  { routes = Hashtbl.create size; counted; dist; count = 0; bound = neg_infinity }

let uncount t dest =
  match Hashtbl.find_opt t.routes dest with
  | Some r when t.counted dest r -> t.count <- t.count - 1
  | _ -> ()

let replace t dest r =
  uncount t dest;
  if t.counted dest r then begin
    t.count <- t.count + 1;
    t.bound <- Float.max t.bound (t.dist r)
  end;
  Hashtbl.replace t.routes dest r

let remove t dest =
  uncount t dest;
  Hashtbl.remove t.routes dest

let reset t =
  Hashtbl.reset t.routes;
  t.count <- 0;
  t.bound <- neg_infinity

let admit t ~k ~dist =
  if t.count < k then true
  else if dist >= t.bound then false
  else begin
    let victim = ref (-1) and far = ref neg_infinity in
    Hashtbl.iter
      (fun d r ->
        if t.counted d r && t.dist r > !far then begin
          far := t.dist r;
          victim := d
        end)
      t.routes;
    t.bound <- !far;
    if dist < !far then begin
      remove t !victim;
      true
    end
    else false
  end

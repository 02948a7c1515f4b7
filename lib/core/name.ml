type t = string

let default i = Printf.sprintf "node:%d" i
let default_array n = Array.init n default
let hash name = Disco_hash.Hash_space.of_name name
let hash_array names = Array.map hash names

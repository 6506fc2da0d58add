open Cfca_prefix

type t = {
  by_len : (int, Nexthop.t) Hashtbl.t array;  (* index = prefix length *)
  default_nh : Nexthop.t;
}

let create ~default_nh =
  { by_len = Array.init 33 (fun _ -> Hashtbl.create 64); default_nh }

let key p = Ipv4.to_int (Prefix.network p)

let announce t p nh = Hashtbl.replace t.by_len.(Prefix.length p) (key p) nh

let withdraw t p = Hashtbl.remove t.by_len.(Prefix.length p) (key p)

let apply t (u : Cfca_bgp.Bgp_update.t) =
  match u.action with
  | Cfca_bgp.Bgp_update.Announce nh -> announce t u.prefix nh
  | Cfca_bgp.Bgp_update.Withdraw -> withdraw t u.prefix

let mask len = if len = 0 then 0 else (0xFFFF_FFFF lsl (32 - len)) land 0xFFFF_FFFF

let lookup t addr =
  let a = Ipv4.to_int addr in
  let rec go len =
    if len < 0 then t.default_nh
    else
      let tbl = t.by_len.(len) in
      if Hashtbl.length tbl = 0 then go (len - 1)
      else
        match Hashtbl.find_opt tbl (a land mask len) with
        | Some nh -> nh
        | None -> go (len - 1)
  in
  go 32

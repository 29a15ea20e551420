#include <sys/socket.h>
struct TcpTransport {
  void listen(int backlog);
};
int open_raw() {
  return ::socket(AF_INET, SOCK_STREAM, 0);  // VIOLATION: not the helper file
}
void TcpTransport::listen(int backlog) {  // fine: a qualified definition
  (void)backlog;
  (void)::connect(3, nullptr, 0);  // VIOLATION: raw connect in a method
}
int via_helper(int fd) { return sock::accept(fd, 0).get(); }  // fine
// A comment naming ::bind( is fine, as is a string: "::listen(".

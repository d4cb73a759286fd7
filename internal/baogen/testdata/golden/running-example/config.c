#include <config.h>

VM_IMAGE(vm1, vm1image.bin);
VM_IMAGE(vm2, vm2image.bin);

struct config config = {
  CONFIG_HEADER
  .vmlist_size = 2,
  .vmlist = {
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm1),
        .size = VM_IMAGE_SIZE(vm1)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b1,
      .platform = { .cpu_num = 1, .dev_num = 2,
        .region_num = 2,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x20000000 },
          { .base = 0x60000000, .size = 0x20000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x20000000, .va = 0x20000000, .size = 0x1000 },
          { .pa = 0x30000000, .va = 0x30000000, .size = 0x1000 },
        },
        .ipc_num = 1,
        .ipcs =  (struct ipc[]) {
          { .base = 0x80000000, .size = 0x10000000, .shmem_id = 0 },
        },
      },
    },
    {
      .image = {
        .base_addr = 0x40000000,
        .load_addr = VM_IMAGE_OFFSET(vm2),
        .size = VM_IMAGE_SIZE(vm2)
      },
      .entry = 0x40000000,
      .cpu_affinity = 0b10,
      .platform = { .cpu_num = 1, .dev_num = 2,
        .region_num = 2,
        .regions =  (struct mem_region[]) {
          { .base = 0x40000000, .size = 0x20000000 },
          { .base = 0x60000000, .size = 0x20000000 },
        },
        .devs =  (struct dev_region[]) {
          { .pa = 0x20000000, .va = 0x20000000, .size = 0x1000 },
          { .pa = 0x30000000, .va = 0x30000000, .size = 0x1000 },
        },
        .ipc_num = 1,
        .ipcs =  (struct ipc[]) {
          { .base = 0x70000000, .size = 0x10000000, .shmem_id = 1 },
        },
      },
    },
  },
  .shmemlist_size = 2,
  .shmemlist = (struct shmem[]) {
    [0] = { .size = 0x10000000 },
    [1] = { .size = 0x10000000 },
  },
};
